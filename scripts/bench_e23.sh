#!/usr/bin/env sh
# E23 beyond-RAM entity storage: bounded memory and throughput parity.
#
# Cell 1 (bounded memory): a paged-store server whose entity set spans
# ~12x its buffer pool (100000 entities = 199 pages of 504 slots,
# pool 16 pages) serves a uniform counter load touching all of it. The
# Go heap (pr_runtime_heap_alloc_bytes, runtime.ReadMemStats) is
# sampled through the run — it must plateau at the pool size, not grow
# with the entity set — and the acknowledged-commit sum is verified
# exactly afterward. GOMEMLIMIT pins the GC so heap samples are
# comparable across machines.
#
# Cell 2 (RAM-resident parity): the E22 hotspot config (64 entities =
# one page, pool 64 pages, i.e. pool >> working set) run against
# -store mem and -store paged; once resident, the paged backend must be
# within ~10% of the memory backend.
#
# Run from the repository root:
#
#   ./scripts/bench_e23.sh [outdir]
set -eu

OUT=${1:-/tmp/bench_e23}
ENTITIES=${ENTITIES:-100000}
POOL=${POOL:-16}
CLIENTS=${CLIENTS:-16}
TXNS=${TXNS:-500}
PAR_TXNS=${PAR_TXNS:-150}
mkdir -p "$OUT"

go build -o "$OUT/prserver" ./cmd/prserver
go build -o "$OUT/prload" ./cmd/prload

NUMCPU=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

start_server() {
    # start_server <log> [flags...]; sets $spid, $addr, $admin_addr.
    slog=$1
    shift
    GOMEMLIMIT=${GOMEMLIMIT:-256MiB} "$OUT/prserver" -addr 127.0.0.1:0 \
        -admin 127.0.0.1:0 -accounts 0 -burst -1 "$@" \
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
    admin_addr=$(sed -n 's/^prserver: admin on http:\/\/\([^ ]*\) .*/\1/p' "$slog")
}

json_num() {
    sed -n "s/.*\"$2\": \([0-9.]*\),*\$/\1/p" "$1" | head -1
}

heap_sample() {
    # One pr_runtime_heap_alloc_bytes sample off the admin endpoint.
    curl -s "http://$admin_addr/metrics?format=json" 2>/dev/null |
        sed -n 's/.*"pr_runtime_heap_alloc_bytes": *\([0-9]*\).*/\1/p' | head -1
}

HAVE_CURL=0
command -v curl >/dev/null 2>&1 && HAVE_CURL=1

# ---- Cell 1: bounded memory over an out-of-core entity set ----------
start_server "$OUT/server_paged.log" \
    -store paged -pool-pages "$POOL" -page-size 4096 \
    -heap "$OUT/heap.dat" -entities "$ENTITIES"
echo "paged server on $addr (admin $admin_addr, $ENTITIES entities, pool $POOL pages)"

"$OUT/prload" -addr "$addr" -workload counter -entities "$ENTITIES" \
    -clients "$CLIENTS" -txns "$TXNS" -conns 4 -seed 23 \
    -admin "$admin_addr" -json "$OUT/report_paged.json" \
    >"$OUT/load_paged.log" 2>&1 &
load_pid=$!

# Sample the Go heap while the load runs: the plateau is the claim.
samples=""
if [ "$HAVE_CURL" = 1 ]; then
    while kill -0 "$load_pid" 2>/dev/null; do
        h=$(heap_sample || true)
        [ -n "$h" ] && samples="$samples$h,"
        sleep 0.5
    done
fi
wait "$load_pid" || { cat "$OUT/load_paged.log"; exit 1; }
[ "$HAVE_CURL" = 1 ] && h=$(heap_sample || true) && [ -n "$h" ] && samples="$samples$h,"
samples=${samples%,}

COMMITTED=$(json_num "$OUT/report_paged.json" committed)
"$OUT/prload" -addr "$addr" -workload counter -entities "$ENTITIES" \
    -verify-sum-min "$COMMITTED"
kill "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true

tput_ooc=$(json_num "$OUT/report_paged.json" throughputTxnPerSec)
p99_ooc=$(json_num "$OUT/report_paged.json" latencyP99Ms)
misses=$(sed -n 's/.* misses=\([0-9]*\).*/\1/p' "$OUT/load_paged.log" | head -1)
evictions=$(sed -n 's/.* evictions=\([0-9]*\).*/\1/p' "$OUT/load_paged.log" | head -1)
heap_max=0
for h in $(echo "$samples" | tr ',' ' '); do
    [ "$h" -gt "$heap_max" ] && heap_max=$h
done
echo "out-of-core: throughput=${tput_ooc} txn/s p99=${p99_ooc}ms misses=$misses evictions=$evictions heap_max=${heap_max}B"

# ---- Cell 2: RAM-resident throughput parity (E22 hotspot config) ----
parity() {
    # parity <label> [extra server flags...]; echoes throughput.
    plabel=$1
    shift
    start_server "$OUT/server_$plabel.log" -entities 64 -stripes 8 "$@"
    "$OUT/prload" -addr "$addr" -workload hotspot \
        -db 64 -hot 8 -hotprob 0.6 -locks 4 -pad 2 \
        -clients "$CLIENTS" -txns "$PAR_TXNS" -conns 4 -seed 22 \
        -json "$OUT/report_$plabel.json" \
        >"$OUT/load_$plabel.log" 2>&1
    kill "$spid" 2>/dev/null || true
    wait "$spid" 2>/dev/null || true
    json_num "$OUT/report_$plabel.json" throughputTxnPerSec
}

tput_mem=$(parity mem)
tput_resident=$(parity resident -store paged -pool-pages 64 -page-size 4096 -heap "$OUT/heap2.dat")
ratio=$(awk "BEGIN{printf \"%.3f\", $tput_resident/$tput_mem}")
echo "parity: mem=${tput_mem} txn/s paged-resident=${tput_resident} txn/s ratio=$ratio"
awk "BEGIN{exit !($ratio >= 0.90)}" || \
    echo "WARNING: resident paged throughput below 90% of mem (ratio $ratio)"

cat >"$OUT/BENCH_E23.json" <<EOF
{
 "id": "E23",
 "title": "Beyond-RAM entity storage: bounded memory out-of-core, throughput parity resident",
 "method": {
  "out_of_core": "prserver -store paged -entities $ENTITIES -pool-pages $POOL -page-size 4096 (entity set ~$((ENTITIES / 504 / POOL))x pool); counter workload clients=$CLIENTS txns/client=$TXNS seed=23; exact -verify-sum-min after; GOMEMLIMIT=256MiB; Go heap sampled from pr_runtime_heap_alloc_bytes every 0.5s",
  "parity": "E22 hotspot config (db=64 hot=8 hotprob=0.6 locks=4 pad=2, clients=$CLIENTS txns/client=$PAR_TXNS seed=22, -stripes 8): -store mem vs -store paged with pool (64 pages) >> working set (1 page)",
  "machine_cpus": $NUMCPU,
  "note": "The bounded-memory claim is the heap plateau: heap_alloc_samples must level out near the pool+runtime baseline instead of growing with the entity set ($ENTITIES entities would be ~800KB resident as slices but the paged heap file keeps them on disk). Miss latency distribution is in the adminMetrics of report_paged.json (pr_store_read_miss_seconds)."
 },
 "out_of_core": {
  "entities": $ENTITIES,
  "pool_pages": $POOL,
  "throughput_txn_s": $tput_ooc,
  "p99_ms": $p99_ooc,
  "committed": $COMMITTED,
  "store_misses": ${misses:-0},
  "store_evictions": ${evictions:-0},
  "heap_alloc_max_bytes": $heap_max,
  "heap_alloc_samples": [$samples]
 },
 "parity": {
  "mem_txn_s": $tput_mem,
  "paged_resident_txn_s": $tput_resident,
  "ratio": $ratio
 }
}
EOF
echo "wrote $OUT/BENCH_E23.json"
