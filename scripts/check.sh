#!/usr/bin/env sh
# Full verification gate: build everything, vet, then run every test
# with the race detector. Run from the repository root:
#
#   ./scripts/check.sh
#
# CI and pre-merge checks should treat any non-zero exit as a failure.
set -eux

go build ./...
go vet ./...
go test -race ./...

# The sharded engine's correctness surface, run explicitly so a filtered
# or cached run above can never silently skip it: shard unit tests, the
# multi-shard serializability property sweep, and the shards=1
# byte-identity regression.
go test -race -count=1 ./internal/shard/
go test -race -count=1 -run 'TestShardPropertySerializable|TestSingleShardIsUnshardedRegression' ./internal/sim/

# Intra-shard striping's correctness surface: the striped lock-table
# unit and concurrency tests, the stripes=1 / stripes>1 byte-identity
# regressions under the deterministic drivers, and the concurrent
# serializability sweep over stripes x burst (GOMAXPROCS=4 so the fast
# paths genuinely run in parallel under the race detector).
go test -race -count=1 -run 'TestFast|TestStriped|TestStripe|TestMigrate|TestSharedOwned' ./internal/lock/
go test -race -count=1 -run 'TestStripedSequentialRegression|TestStripedShardedSequentialRegression' ./internal/sim/
GOMAXPROCS=4 go test -race -count=1 -run 'TestConcurrentStriped' ./internal/runtime/

# Burst stepping's correctness surface, likewise explicit: the burst=1
# byte-identity regression and the serializability property sweep at
# every burst level (including adaptive, burst=-1).
go test -race -count=1 -run 'TestBurstOneIsStepRegression|TestBurstPropertySerializable' ./internal/sim/

# The frame decoder and the connection reader are the server's only
# input from outside: bounded fuzz runs on top of the committed corpus.
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s ./internal/wire/

# Stream multiplexing's correctness surface: the demux/drain unit
# tests on both ends of the wire, then 10k concurrent streams over 4
# sockets against a race-enabled server with an arithmetic
# zero-lost-acks check.
go test -race -count=1 -run 'TestMux' ./internal/server/ ./internal/client/
./scripts/smoke_mux.sh

# Durability's correctness surface, likewise explicit: the wal framing
# and torn-tail offsets, the group-commit/recovery unit tests, and the
# concurrent-committer durability tests (acks only after fsync).
go test -race -count=1 ./internal/wal/ ./internal/durable/

# Checkpointing's correctness surface: the checkpoint codec and
# runner unit tests, the concurrent commit-consistency property
# (every fuzzy snapshot taken during a contended banking run must
# satisfy the sum invariant), the rotation/tail-replay/torn-checkpoint
# recovery tests, and the no-checkpoint byte-identity pin.
go test -race -count=1 ./internal/checkpoint/
go test -race -count=1 -run 'TestRotation|TestCheckpoint|TestRecoveryPrefers|TestNoCheckpointByteIdentity' ./internal/durable/

# The paged entity store's correctness surface: the page/pool unit
# tests (incl. the pinned-never-evicted property), the paged-vs-memory
# backend byte-identity regression, the recovery-into-paged-store
# tests, and the concurrent banking run over a pool smaller than the
# working set.
go test -race -count=1 ./internal/page/ ./internal/entity/
go test -race -count=1 -run 'TestPagedStoreSequentialRegression' ./internal/sim/
go test -race -count=1 -run 'TestRecoveryIntoPagedStore' ./internal/durable/
GOMAXPROCS=4 go test -race -count=1 -run 'TestConcurrentPagedBank' ./internal/runtime/

# Out-of-core end-to-end: a paged-backend server over an entity set
# ~17x its buffer pool must evict throughout and still account for
# every acknowledged commit exactly (fast bounded-memory smoke gate).
./scripts/smoke_paged.sh

# Crash recovery end-to-end: kill -9 a WAL-backed prserver mid-load
# (including rounds with an active checkpointer and phase delays so
# kills land inside in-progress checkpoints and mid-compaction, and a
# final round against -store paged), restart it over the same log, and
# verify by arithmetic that every acknowledged commit survived.
./scripts/smoke_recovery.sh

# Micro-benchmarks: one race-enabled iteration each, plus the
# zero-allocation regression tests (including the memory-only commit
# path in internal/core), so benchmark code cannot rot.
./scripts/bench_smoke.sh

# Observability end-to-end: start prserver with -admin and assert the
# metrics, wait-for-graph and transaction-table endpoints really serve
# (needs curl; skipped where unavailable).
if command -v curl >/dev/null 2>&1; then
    ./scripts/smoke_obs.sh
else
    echo "curl not found; skipping obs smoke test"
fi
