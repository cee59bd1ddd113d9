package main

import (
	"fmt"
	"path/filepath"

	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
)

// sumOf returns the sum of every defined entity value.
func sumOf(s *entity.Store) int64 {
	vals, defined, _ := s.SnapshotSlices(nil, nil)
	var sum int64
	for i, ok := range defined {
		if ok {
			sum += vals[i]
		}
	}
	return sum
}

// checkSum fails unless the store passes its own constraints and its
// entities sum to exactly want.
func checkSum(s *entity.Store, want int64, what string) error {
	if err := s.CheckConsistent(); err != nil {
		return fmt.Errorf("store inconsistent: %w", err)
	}
	if got := sumOf(s); got != want {
		return fmt.Errorf("store sum %d, want %d (%s)", got, want, what)
	}
	return nil
}

// checkRecovered replays the WAL in dir (checkpoint base plus tail)
// into a fresh paged store and fails unless the recovered counters sum
// to exactly acked and recovery started from a checkpoint.
func checkRecovered(dir string, entities int, acked int64) error {
	store, err := entity.NewUniformPagedStore("e", entities, 0, entity.PagedConfig{
		Path: filepath.Join(dir, "heap-recovered.dat"), PageSize: pageSize, PoolPages: poolPages})
	if err != nil {
		return err
	}
	set, rec, err := durable.Open(filepath.Join(dir, "wal"), 1, store, durable.Options{})
	if err != nil {
		store.Close()
		return fmt.Errorf("recovery: %w", err)
	}
	err = checkSum(store, acked, "acknowledged commits after recovery")
	if err == nil && rec.CheckpointFile == "" {
		err = fmt.Errorf("recovery replayed no checkpoint base")
	}
	if cerr := set.Close(); err == nil {
		err = cerr
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

// verify runs the output checks on an instance whose load has stopped:
// acked is every commit acknowledged on it. It shuts the server down,
// checks the engine's invariants and the store, and for a durable
// instance closes it and checks recovery into a fresh store. The
// instance is closed afterwards either way.
func (inst *instance) verify(acked int64) (string, error) {
	defer inst.close()
	if err := inst.stop(); err != nil {
		return "", fmt.Errorf("shutdown: %w", err)
	}
	if err := inst.srv.System().CheckInvariants(); err != nil {
		return "", fmt.Errorf("engine invariants: %w", err)
	}
	if !inst.w.durable {
		if err := checkSum(inst.store, inst.initSum, "initial sum"); err != nil {
			return "", err
		}
		return fmt.Sprintf("sum conserved at %d, store consistent, engine invariants hold", inst.initSum), nil
	}
	if err := checkSum(inst.store, acked, "acknowledged commits"); err != nil {
		return "", err
	}
	inst.cp.Close()
	inst.cp = nil
	if err := inst.wal.Close(); err != nil {
		return "", fmt.Errorf("wal close: %w", err)
	}
	inst.wal = nil
	if err := checkRecovered(inst.dir, inst.w.entities, acked); err != nil {
		return "", err
	}
	return fmt.Sprintf("counters sum to %d acknowledged commits live and after recovery, "+
		"store consistent, engine invariants hold", acked), nil
}

// exercise fails a window that did not exercise what its workload is
// for, so lost coverage cannot pass as a speed-up.
func (w *workload) exercise(win *window) error {
	if w.hotSet > 0 { // a hot set is there to make transactions deadlock
		if win.delta("deadlocks") == 0 || win.delta("rollbacks_partial") == 0 {
			return fmt.Errorf("%s: %d deadlocks and %d partial rollbacks, want both > 0",
				w.name, win.delta("deadlocks"), win.delta("rollbacks_partial"))
		}
	}
	if w.durable {
		if n := win.after.ckpt.count - win.before.ckpt.count; n < minCheckpoints {
			return fmt.Errorf("%s: %d checkpoints, want at least %d", w.name, n, minCheckpoints)
		}
	}
	return nil
}
