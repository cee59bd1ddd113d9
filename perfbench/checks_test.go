package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
)

func TestCheckSumRejectsTamperedStore(t *testing.T) {
	nm := newNames(16)
	s := entity.NewUniformStore("e", 16, initValue)
	s.AddConstraint(entity.SumConstraint("sum", 16*initValue, nm.ents...))
	if err := checkSum(s, 16*initValue, "initial sum"); err != nil {
		t.Fatalf("untouched store: %v", err)
	}
	if err := s.Install("e3", initValue+1); err != nil {
		t.Fatal(err)
	}
	if err := checkSum(s, 16*initValue, "initial sum"); err == nil {
		t.Error("store with one value changed passed")
	}

	// Without a constraint the sum comparison alone must catch it, as
	// for the durable counters.
	c := entity.NewUniformStore("e", 16, 0)
	if err := c.Install("e5", 1); err != nil {
		t.Fatal(err)
	}
	if err := checkSum(c, 1, "acknowledged commits"); err != nil {
		t.Fatalf("one acked commit: %v", err)
	}
	if err := checkSum(c, 2, "acknowledged commits"); err == nil {
		t.Error("a lost commit passed")
	}
}

// The generated transfers must conserve the sum when run, else the
// output check would fail for the benchmark's own fault.
func TestTransfersConserveTheSum(t *testing.T) {
	for _, w := range workloads[:2] {
		nm := newNames(w.entities)
		store := entity.NewUniformStore("e", w.entities, initValue)
		eng := core.New(core.Config{Store: store, Strategy: core.MCS, Policy: deadlock.OrderedMinCost{}})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			sp := w.genSpec(rng)
			p := w.program(&sp, nm)
			if _, err := txn.ValidateAnalyze(p); err != nil {
				t.Fatalf("%s: invalid program: %v", w.name, err)
			}
			id, err := eng.Register(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.StepToCommit(context.Background(), eng, id, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkSum(store, int64(w.entities)*initValue, "initial sum"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// smallDurable is durable-outofcore over few entities, for tests.
func smallDurable() *workload {
	w := *workloads[2]
	w.entities = 3000
	w.streams = 4
	return &w
}

// A durable instance that served load passes the recovery check, and
// fails it once a commit is claimed that the log does not hold, or once
// the log loses its tail.
func TestCheckRecoveredRejectsTamperedLog(t *testing.T) {
	w := smallDurable()
	nm := newNames(w.entities)
	inst, _, err := setup(w, nm, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	gens := w.generators(1)
	first := drive(inst, gens, nm, 200*time.Millisecond)
	if err := inst.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	second := drive(inst, gens, nm, 200*time.Millisecond)
	acked := first.committed + second.committed
	if first.failed+second.failed != 0 || second.committed == 0 {
		t.Fatalf("load: %d/%d committed, first error %v", acked, first.attempted+second.attempted, first.firstErr)
	}
	if err := inst.stop(); err != nil {
		t.Fatal(err)
	}
	if err := checkSum(inst.store, acked+1, "acknowledged commits"); err == nil {
		t.Error("live check passed with a commit more than acknowledged")
	}
	inst.cp.Close()
	inst.cp = nil
	if err := inst.wal.Close(); err != nil {
		t.Fatal(err)
	}
	inst.wal = nil

	if err := checkRecovered(inst.dir, w.entities, acked); err != nil {
		t.Fatalf("untouched log: %v", err)
	}
	if err := checkRecovered(inst.dir, w.entities, acked+1); err == nil {
		t.Error("recovery check passed with a commit more than acknowledged")
	}
	active := filepath.Join(inst.dir, "wal", "wal-0.log")
	fi, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(inst.dir, w.entities, acked); err == nil {
		t.Error("recovery check passed after the log lost half its tail")
	}
}

func TestVerifyAndExerciseOnServedLoad(t *testing.T) {
	w := smallDurable()
	nm := newNames(w.entities)
	inst, _, err := setup(w, nm, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	win := drive(inst, w.generators(2), nm, 200*time.Millisecond)
	if err := w.exercise(win); err == nil {
		t.Error("a window without checkpoints passed the durable exercise check")
	}
	if err := inst.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.verify(win.committed); err != nil {
		t.Errorf("verify: %v", err)
	}

	hot := workloads[0]
	quiet := &window{before: snapshot{counters: map[string]int64{}}, after: snapshot{counters: map[string]int64{"deadlocks": 5}}}
	if err := hot.exercise(quiet); err == nil {
		t.Error("a hotspot window without partial rollbacks passed")
	}
	quiet.after.counters["rollbacks_partial"] = 1
	if err := hot.exercise(quiet); err != nil {
		t.Errorf("hotspot window with deadlocks and partial rollbacks: %v", err)
	}
}
