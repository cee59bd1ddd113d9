#!/usr/bin/env sh
# E20 connection-efficiency benchmark: the multiplexing claim. At equal
# total concurrency (CONC in-flight transactions), compare
#
#   baseline  one stream per connection: CONC sockets
#   mux       CONC streams multiplexed over CONNS sockets
#
# on txn/s-per-socket (throughputTxnPerSec / openSockets), the ROADMAP
# metric for "thousands of transactions per socket, not per
# connection". With CONC=256 and CONNS=4 the socket count drops 64x, so
# as long as multiplexed throughput holds within ~3x of the baseline
# the per-socket ratio clears the 20x acceptance bar. Both servers run
# adaptive burst (-burst -1). Trials are interleaved so drift hits both
# configurations alike. Run from the repository root:
#
#   ./scripts/bench_e20.sh [outdir]
#
# The committed BENCH_E20.json records one such run (see EXPERIMENTS.md,
# E20): the two prload reports plus the computed per-socket ratio.
# Numbers are machine-dependent — only ratios measured back-to-back on
# one machine are meaningful.
set -eu

OUT=${1:-/tmp/bench_e20}
TRIALS=${TRIALS:-3}
CONC=${CONC:-256}
CONNS=${CONNS:-4}
TXNS=${TXNS:-40}
mkdir -p "$OUT"

go build -o "$OUT/prserver" ./cmd/prserver
go build -o "$OUT/prload" ./cmd/prload

run_one() {
    # run_one <label> <trial> <loader-args...>
    label=$1; trial=$2; shift 2
    "$OUT/prserver" -addr 127.0.0.1:0 -strategy mcs -entities 64 \
        -accounts 0 -burst -1 \
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
    "$OUT/prload" -addr "$addr" -txns "$TXNS" \
        -workload hotspot -db 64 -hot 8 -hotprob 0.8 -locks 4 \
        -seed 1 -json "$f" "$@" >/dev/null
    kill $spid 2>/dev/null || true
    wait $spid 2>/dev/null || true
    echo "$label trial=$trial:" \
        "$(grep -o '"throughputTxnPerSec": [0-9.]*' "$f")" \
        "$(grep -o '"txnsPerSocket": [0-9.]*' "$f")"
}

t=1
while [ "$t" -le "$TRIALS" ]; do
    run_one baseline "$t" -conns "$CONC" -clients "$CONC"
    run_one mux "$t" -conns "$CONNS" -clients "$CONC"
    t=$((t + 1))
done

# Combine the last trial into one report with the headline ratio.
base_ps=$(grep -o '"txnsPerSocket": [0-9.]*' "$OUT/baseline_r${TRIALS}.json" | grep -o '[0-9.]*')
mux_ps=$(grep -o '"txnsPerSocket": [0-9.]*' "$OUT/mux_r${TRIALS}.json" | grep -o '[0-9.]*')
ratio=$(awk "BEGIN { printf \"%.1f\", $mux_ps / $base_ps }")
{
    printf '{\n'
    printf '  "concurrency": %s,\n' "$CONC"
    printf '  "baselinePerSocket": %s,\n' "$base_ps"
    printf '  "muxPerSocket": %s,\n' "$mux_ps"
    printf '  "perSocketRatio": %s,\n' "$ratio"
    printf '  "baseline": '
    cat "$OUT/baseline_r${TRIALS}.json"
    printf ',\n  "mux": '
    cat "$OUT/mux_r${TRIALS}.json"
    printf '}\n'
} >"$OUT/BENCH_E20.json"
echo "per-socket ratio: ${ratio}x (baseline $base_ps, mux $mux_ps txn/s-per-socket)"
echo "results in $OUT"
