package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/client"
	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/intern"
	"partialrollback/internal/server"
)

// instance is one in-process server built the way cmd/prserver builds
// it, plus the benchmark's client sockets.
type instance struct {
	w       *workload
	dir     string
	store   *entity.Store
	wal     *durable.Set
	cp      *checkpoint.Checkpointer
	srv     *server.Server
	muxes   []*client.Mux
	initSum int64
	ckpt    ckptCounter
	tr      *tracer // nil when untraced
	// The checkpoint snapshot's buffers, reused from one checkpoint to
	// the next as cmd/prserver reuses them.
	snapVals    []int64
	snapDefined []bool
}

// setup builds and starts an instance in dir (created here) and returns
// the time it took: store build, WAL open and recovery, listen, and the
// first round trip on every socket. With tr non-nil the layer hooks
// are wired to it.
func setup(w *workload, nm *names, dir string, tr *tracer) (*instance, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	inst := &instance{w: w, dir: dir, tr: tr}
	if err := inst.build(nm); err != nil {
		inst.close()
		return nil, 0, err
	}
	if err := inst.srv.Listen("127.0.0.1:0"); err != nil {
		inst.close()
		return nil, 0, err
	}
	addr := inst.srv.Addr().String()
	for i := 0; i < sockets; i++ {
		m := client.NewMux(client.MuxConfig{
			Addr:    addr,
			Backoff: exec.Backoff{Base: 2 * time.Millisecond, Cap: 250 * time.Millisecond},
		})
		inst.muxes = append(inst.muxes, m)
		if _, err := m.Stats(); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("first round trip: %w", err)
		}
	}
	return inst, time.Since(start), nil
}

func (inst *instance) build(nm *names) error {
	w := inst.w
	cfg := server.Config{
		Strategy: core.MCS,
		Policy:   deadlock.OrderedMinCost{},
	}
	if !w.durable {
		inst.store = entity.NewUniformStore("e", w.entities, initValue)
		inst.initSum = int64(w.entities) * initValue
		inst.store.AddConstraint(entity.SumConstraint("sum", inst.initSum, nm.ents...))
		cfg.Store = inst.store
		inst.hook(&cfg)
		inst.srv = server.New(cfg)
		return nil
	}
	pc := entity.PagedConfig{Path: filepath.Join(inst.dir, "heap.dat"), PageSize: pageSize, PoolPages: poolPages}
	if inst.tr != nil {
		pc.OnMiss = inst.tr.onMiss
	}
	store, err := entity.NewUniformPagedStore("e", w.entities, 0, pc)
	if err != nil {
		return err
	}
	inst.store = store
	opts := durable.Options{Mode: durable.SyncGroup, Window: groupWindow, MaxBatch: groupMax}
	if inst.tr != nil {
		opts.OnFlush = inst.tr.onFlush
	}
	set, _, err := durable.Open(filepath.Join(inst.dir, "wal"), 1, store, opts)
	if err != nil {
		return err
	}
	inst.wal = set
	cfg.Store = store
	cfg.Durable = set
	inst.hook(&cfg)
	inst.srv = server.New(cfg)
	quiescer, ok := inst.srv.System().(core.Quiescer)
	if !ok {
		return fmt.Errorf("engine does not support quiesce")
	}
	copts := checkpoint.Options{Bytes: ckptBytes, OnCheckpoint: inst.ckpt.onCheckpoint}
	inst.cp = checkpoint.New(set, quiescer, checkpoint.SnapshotFunc(inst.snapshot), copts)
	inst.cp.Start()
	return nil
}

func (inst *instance) hook(cfg *server.Config) {
	if inst.tr != nil {
		cfg.OnEvent = inst.tr.onEvent
		cfg.LockWait = inst.tr.onLockWait
	}
}

// snapshot is the checkpoint snapshot, taken under the engine quiesce
// the way cmd/prserver takes it: flush the paged store, copy its slices
// into the reused buffers, resolve names. The traced run times it as
// the stall every in-flight transaction sees.
func (inst *instance) snapshot() []checkpoint.Entry {
	var t0 int64
	if inst.tr != nil {
		t0 = inst.tr.now()
	}
	// A failed heap flush leaves the heap stale, never the checkpoint:
	// the snapshot below reads resident frames from memory.
	_ = inst.store.Flush()
	inst.snapVals, inst.snapDefined, _ = inst.store.SnapshotSlices(inst.snapVals, inst.snapDefined)
	entries := make([]checkpoint.Entry, 0, len(inst.snapVals))
	for i, ok := range inst.snapDefined {
		if ok {
			entries = append(entries, checkpoint.Entry{Name: inst.store.NameOf(intern.ID(i)), Val: inst.snapVals[i]})
		}
	}
	if inst.tr != nil {
		inst.tr.onQuiesce(t0, inst.tr.now())
	}
	return entries
}

// stop shuts the server down (every accepted stream gets its reply)
// and closes the client sockets. The store and WAL stay open for the
// output checks.
func (inst *instance) stop() error {
	for _, m := range inst.muxes {
		_ = m.Close() // the server side is drained below either way
	}
	inst.muxes = nil
	if inst.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return inst.srv.Shutdown(ctx)
}

// close releases everything and removes the instance's directory.
// Safe on a partly built instance and after stop.
func (inst *instance) close() error {
	err := inst.stop()
	inst.srv = nil
	if inst.cp != nil {
		inst.cp.Close()
		inst.cp = nil
	}
	if inst.wal != nil {
		if cerr := inst.wal.Close(); err == nil {
			err = cerr
		}
		inst.wal = nil
	}
	if inst.store != nil {
		if cerr := inst.store.Close(); err == nil {
			err = cerr
		}
		inst.store = nil
	}
	if rerr := os.RemoveAll(inst.dir); err == nil {
		err = rerr
	}
	return err
}

func (inst *instance) counters() map[string]int64 {
	out := map[string]int64{}
	for _, c := range inst.srv.Counters() {
		out[c.Name] = c.Val
	}
	return out
}
