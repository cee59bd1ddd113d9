package core

import (
	"fmt"
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
)

// TestSharedBackoffLivelockEscalates reproduces a livelock seen under
// sustained served load. Two young transactions, T3 and T5, each
// close a cycle with an exclusive waiter on an entity they hold
// shared beside an older shared holder. Each is the youngest in its
// cycle, so it backs off just past that shared lock, re-acquires it at
// once (the other shared holder keeps the exclusive waiter blocked)
// and closes the same cycle again. The oldest transaction, T1, waits
// outside both cycles for e4, which T5 locked before its rollback
// target and never releases. Without aging T1's wait across those
// resolutions nothing commits, however long the two are stepped.
func TestSharedBackoffLivelockEscalates(t *testing.T) {
	store := entity.NewStore(map[string]int64{"e1": 0, "e3": 0, "e4": 0, "e7": 0, "e60": 0})
	s := New(Config{Store: store, Strategy: MCS})
	progs := []*txn.Program{
		txn.NewProgram("T1").LockS("e3").LockX("e4").MustBuild(),
		txn.NewProgram("T2").LockX("e1").LockX("e3").MustBuild(),
		txn.NewProgram("T3").LockS("e60").LockS("e3").LockX("e1").MustBuild(),
		txn.NewProgram("T4").LockX("e7").LockX("e60").MustBuild(),
		txn.NewProgram("T5").LockX("e4").LockS("e60").LockX("e7").MustBuild(),
	}
	ids := make([]txn.ID, len(progs))
	for i, p := range progs {
		ids[i] = s.MustRegister(p)
	}
	step := func(k int) Outcome {
		t.Helper()
		res, err := s.Step(ids[k])
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcome
	}
	// Set the stage: every first lock, T3's and T5's second (shared,
	// beside T1 and T3 respectively), then the three waits outside
	// any cycle.
	for _, k := range []int{0, 1, 2, 2, 3, 4, 4} {
		if got := step(k); got != Progressed {
			t.Fatalf("setup step of T%d: %v, want progressed", k+1, got)
		}
	}
	for _, k := range []int{0, 1, 3} {
		if got := step(k); got != Blocked {
			t.Fatalf("T%d's second lock: %v, want blocked", k+1, got)
		}
	}
	// Only T3 and T5 are runnable; step them round-robin.
	for round := 0; round < 1000 && !s.AllCommitted(); round++ {
		for _, id := range s.Runnable() {
			if _, err := s.Step(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !s.AllCommitted() {
		var state []string
		for i, id := range ids {
			st, _ := s.Status(id)
			state = append(state, fmt.Sprintf("T%d %v (%d rollbacks)", i+1, st, s.TxnStatsOf(id).Rollbacks))
		}
		t.Fatalf("livelock: no progress after 1000 rounds: %v", state)
	}
	if s.Stats().Escalations == 0 {
		t.Fatal("all committed without an escalation; the test no longer exercises the livelock")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
