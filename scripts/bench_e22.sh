#!/usr/bin/env sh
# E22 intra-shard parallelism sweep: served throughput as a function of
# GOMAXPROCS x stripes. For each cell the server is started with the
# given GOMAXPROCS (pinning how many OS threads may run engine code)
# and -stripes (1 = the classic single-mutex engine, >1 = striped lock
# table with the CAS shared fast path), the same seeded hotspot load is
# driven as streams multiplexed over 4 sockets, and the client's -json
# report supplies throughput and latency.
#
# The claim is conditional on cores: with GOMAXPROCS=1 every cell must
# be parity (striping buys nothing without parallelism — and must cost
# nothing); with more cores the striped cells pull ahead of stripes=1
# as uncontended steps stop serializing on the engine mutex. On a
# single-core container the whole table is parity; the committed
# BENCH_E22.json records which case the run machine was. Run from the
# repository root:
#
#   ./scripts/bench_e22.sh [outdir]
set -eu

OUT=${1:-/tmp/bench_e22}
GMPS=${GMPS:-"1 2 4"}
STRIPES=${STRIPES:-"1 8"}
CLIENTS=${CLIENTS:-16}
TXNS=${TXNS:-150}
mkdir -p "$OUT"

go build -o "$OUT/prserver" ./cmd/prserver
go build -o "$OUT/prload" ./cmd/prload

NUMCPU=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

start_server() {
    # start_server <gomaxprocs> <stripes> <log>; sets $spid and $addr.
    slog=$3
    GOMAXPROCS=$1 "$OUT/prserver" -addr 127.0.0.1:0 \
        -entities 64 -accounts 0 -shards 1 -stripes "$2" -burst -1 \
        >"$slog" 2>&1 &
    spid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^prserver: listening on \([^ ]*\) .*/\1/p' "$slog")
        [ -n "$addr" ] && break
        kill -0 "$spid" 2>/dev/null || { cat "$slog"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "server never came up"; cat "$slog"; exit 1; }
}

json_num() {
    # json_num <file> <key>: pull a numeric field from a pretty-printed
    # prload report.
    sed -n "s/.*\"$2\": \([0-9.]*\),*\$/\1/p" "$1" | head -1
}

rows=""
for gmp in $GMPS; do
    for s in $STRIPES; do
        label="gmp${gmp}_s${s}"
        start_server "$gmp" "$s" "$OUT/server_$label.log"
        "$OUT/prload" -addr "$addr" -workload hotspot \
            -db 64 -hot 8 -hotprob 0.6 -locks 4 -pad 2 \
            -clients "$CLIENTS" -txns "$TXNS" -conns 4 -seed 22 \
            -json "$OUT/report_$label.json" \
            >"$OUT/load_$label.log" 2>&1
        kill "$spid" 2>/dev/null || true
        wait "$spid" 2>/dev/null || true

        rep="$OUT/report_$label.json"
        tput=$(json_num "$rep" throughputTxnPerSec)
        p50=$(json_num "$rep" latencyP50Ms)
        p99=$(json_num "$rep" latencyP99Ms)
        committed=$(json_num "$rep" committed)
        lost=$(json_num "$rep" opsLost)
        echo "$label: throughput=${tput} txn/s p50=${p50}ms p99=${p99}ms committed=$committed opsLost=$lost"
        rows="$rows{\"gomaxprocs\":$gmp,\"stripes\":$s,\"throughput_txn_s\":$tput,\"p50_ms\":$p50,\"p99_ms\":$p99,\"committed\":$committed,\"ops_lost\":$lost},"
    done
done

rows=${rows%,}
cat >"$OUT/BENCH_E22.json" <<EOF
{
 "id": "E22",
 "title": "Intra-shard parallelism: throughput vs GOMAXPROCS x lock-table stripes",
 "method": {
  "workload": "hotspot db=64 hot=8 hotprob=0.6 locks=4 pad=2 clients=$CLIENTS txns/client=$TXNS conns=4 seed=22",
  "server": "prserver -entities 64 -accounts 0 -shards 1 -stripes {$STRIPES} -burst -1, GOMAXPROCS in {$GMPS}",
  "machine_cpus": $NUMCPU,
  "note": "stripes=1 is the classic single-mutex engine; striped cells route uncontended steps through the engine read lock (shared grants one CAS). With GOMAXPROCS=1, and on any single-core machine, every cell is expected to be parity — the striped engine must not cost throughput. The scaling claim (striped > stripes=1 at equal GOMAXPROCS) only applies when machine_cpus > 1; see EXPERIMENTS.md E22."
 },
 "rows": [$rows]
}
EOF
echo "wrote $OUT/BENCH_E22.json"
