#!/usr/bin/env sh
# E19 durability sweep: hotspot throughput at 64 concurrent clients
# under every fsync discipline, on the native device and under an
# emulated classical disk (-fsync-delay adds a calibrated barrier
# latency after each fsync). Configurations:
#
#   wal=off                          (memory-only baseline; must stay
#                                     within noise of BENCH_E18)
#   fsync=off                        (write-through, no fsync)
#   fsync=always, delay in {0, 2ms}  (forced log: one fsync per commit)
#   fsync=group,  delay in {0, 2ms}, window in {0, 1ms, 2ms, 5ms}
#
# The group-vs-always ratio is the tentpole claim: at 64 clients a
# group flush carries up to 64 commits per fsync, so the ratio tracks
# how much of the commit path the fsync dominates. On this container's
# ~120us virtio fsync the native ratio is modest; the 2ms emulated
# barrier shows the classical-disk regime. Trials are interleaved so
# drift hits all configurations alike. Run from the repository root:
#
#   ./scripts/bench_e19.sh [outdir]
#
# The committed BENCH_E19.json records one such run (see EXPERIMENTS.md,
# E19). Numbers are machine-dependent — only ratios measured
# back-to-back on one machine are meaningful.
set -eu

OUT=${1:-/tmp/bench_e19}
TRIALS=${TRIALS:-3}
CLIENTS=${CLIENTS:-64}
TXNS=${TXNS:-100}
mkdir -p "$OUT"

go build -o "$OUT/prserver" ./cmd/prserver
go build -o "$OUT/prload" ./cmd/prload

run_one() {
    # run_one <label> <trial> <server-args...>
    label=$1; trial=$2; shift 2
    wal="$OUT/wal_${label}_r${trial}"
    rm -rf "$wal"
    "$OUT/prserver" -addr 127.0.0.1:0 -strategy mcs -entities 64 \
        -accounts 16 -shards 1 -burst 16 "$@" \
        >"$OUT/server_${label}_r${trial}.log" 2>&1 &
    spid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^prserver: listening on \([^ ]*\) .*/\1/p' \
            "$OUT/server_${label}_r${trial}.log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    f="$OUT/${label}_r${trial}.json"
    "$OUT/prload" -addr "$addr" -clients "$CLIENTS" -conns "$CLIENTS" -txns "$TXNS" \
        -workload hotspot -db 64 -hot 8 -hotprob 0.8 -locks 4 \
        -seed 1 -json "$f" >/dev/null
    kill $spid 2>/dev/null || true
    wait $spid 2>/dev/null || true
    echo "$label trial=$trial:" \
        "$(grep -o '"throughputTxnPerSec": [0-9.]*' "$f")" \
        "$(grep -o '"wal_fsync_batches": [0-9]*' "$f" || true)"
}

t=1
while [ "$t" -le "$TRIALS" ]; do
    run_one mem "$t"
    run_one syncoff "$t" -wal "$OUT/wal_syncoff_r$t" -fsync off
    for delay in 0s 2ms; do
        run_one "always_d${delay}" "$t" \
            -wal "$OUT/wal_always_d${delay}_r$t" -fsync always -fsync-delay "$delay"
        for win in -1ms 1ms 2ms 5ms; do
            run_one "group_d${delay}_w${win}" "$t" \
                -wal "$OUT/wal_group_d${delay}_w${win}_r$t" -fsync group \
                -group-window "$win" -fsync-delay "$delay"
        done
    done
    t=$((t + 1))
done

echo "results in $OUT"
