#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it,
# passing every argument through, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload hotspot-interleaved --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and each run's files stay under
# .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
