#!/usr/bin/env sh
# E21 bounded-recovery sweep: startup recovery time as a function of
# log length, with and without checkpoints. For each log size the
# fill phase drives acknowledged counter commits at a WAL-backed
# server and kills it with -9; the measure phase restarts over the
# same directory and reads the server's own recovery report:
#
#   prserver: wal: recovered N records ...
#   prserver: wal: checkpoint base ckpt-...; replayed tail of T record(s)
#   prserver: wal: recovery took D
#
# Without checkpoints the replayed record count — and so recovery
# time — grows linearly with history. With a checkpointer
# (-checkpoint-interval 150ms) recovery loads the newest snapshot and
# replays only the tail behind its frontier, so both the tail length
# and the recovery time stay roughly flat as the log grows; compaction
# additionally bounds the bytes on disk. Run from the repository root:
#
#   ./scripts/bench_e21.sh [outdir]
#
# The committed BENCH_E21.json records one such run (see
# EXPERIMENTS.md, E21). Absolute times are machine-dependent; the
# shape (linear vs flat) is the claim.
set -eu

OUT=${1:-/tmp/bench_e21}
SIZES=${SIZES:-"2000 8000 32000"}
CLIENTS=${CLIENTS:-16}
mkdir -p "$OUT"

go build -o "$OUT/prserver" ./cmd/prserver
go build -o "$OUT/prload" ./cmd/prload

# dur_ms <go-duration>: convert 250µs / 1.5ms / 1.2s to milliseconds.
dur_ms() {
    awk -v d="$1" 'BEGIN{
        if (d ~ /(µs|us)$/)      { sub(/(µs|us)$/, "", d); printf "%.3f\n", d/1000 }
        else if (d ~ /ms$/)      { sub(/ms$/, "", d); printf "%.3f\n", d+0 }
        else if (d ~ /[0-9]s$/)  { sub(/s$/, "", d); printf "%.3f\n", d*1000 }
        else                     { printf "-1\n" }
    }'
}

start_server() {
    # start_server <log> <server-args...>; sets $spid and $addr.
    slog=$1
    shift
    "$OUT/prserver" -addr 127.0.0.1:0 -entities 16 -accounts 0 \
        -shards 2 -burst 8 -fsync group -group-window 1ms "$@" \
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

run_one() {
    # run_one <label> <commits> <checkpoint-args...>
    label=$1; commits=$2; shift 2
    wal="$OUT/wal_$label"
    rm -rf "$wal"

    # Fill: acknowledged commits, then kill -9 (a crash, not a clean
    # close, so the measured recovery includes torn-tail handling).
    start_server "$OUT/fill_$label.log" -wal "$wal" "$@"
    "$OUT/prload" -addr "$addr" -workload counter -counters 8 \
        -clients "$CLIENTS" -conns "$CLIENTS" -txns $((commits / CLIENTS)) -seed 21 \
        >"$OUT/load_$label.log" 2>&1
    kill -9 "$spid"
    wait "$spid" 2>/dev/null || true

    # Measure: restart plainly and read the recovery report.
    start_server "$OUT/measure_$label.log" -wal "$wal"
    kill "$spid" 2>/dev/null || true
    wait "$spid" 2>/dev/null || true

    mlog="$OUT/measure_$label.log"
    records=$(sed -n 's/^prserver: wal: recovered \([0-9]*\) records.*/\1/p' "$mlog")
    tail_recs=$(sed -n 's/.*replayed tail of \([0-9]*\) record(s).*/\1/p' "$mlog")
    [ -n "$tail_recs" ] || tail_recs=$records
    dur=$(sed -n 's/^prserver: wal: recovery took \(.*\)$/\1/p' "$mlog")
    ms=$(dur_ms "$dur")
    bytes=$(du -sb "$wal" | cut -f1)
    echo "$label: commits=$commits records=$records tail=$tail_recs recovery=${dur} (${ms}ms) walbytes=$bytes"
    rows="$rows{\"label\":\"$label\",\"commits\":$commits,\"records\":$records,\"tail_records\":$tail_recs,\"recovery_ms\":$ms,\"wal_bytes\":$bytes},"
}

rows=""
for n in $SIZES; do
    run_one "plain_$n" "$n"
    run_one "ckpt_$n" "$n" -checkpoint-interval 150ms -retain 2
done

rows=${rows%,}
cat >"$OUT/BENCH_E21.json" <<EOF
{
 "id": "E21",
 "title": "Bounded recovery: restart time vs log length, with and without checkpoints",
 "method": {
  "workload": "counter counters=8 clients=$CLIENTS seed=21",
  "server": "prserver -entities 16 -accounts 0 -shards 2 -burst 8 -fsync group -group-window 1ms",
  "fill": "acknowledged commits per size in {$SIZES}, then kill -9 (crash recovery, torn tail included)",
  "checkpoint": "-checkpoint-interval 150ms -retain 2 on the ckpt_* rows; plain_* rows have no checkpointer",
  "note": "recovery_ms is the server's own 'wal: recovery took' report on restart (checkpoint load + log scan + replay). tail_records is what was actually replayed past the checkpoint frontier; for plain rows it equals the full entity-record count. wal_bytes is the on-disk directory size after the crash — compaction bounds it on ckpt rows."
 },
 "rows": [$rows]
}
EOF
echo "wrote $OUT/BENCH_E21.json"
