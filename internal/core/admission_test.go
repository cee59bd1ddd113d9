package core

import (
	"errors"
	"fmt"
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
)

// TestRejectedRegistrationsLeaveInternerUnchanged registers programs
// that lock names the store never defined. Every one must be rejected
// without interning the name: admission resolves entities by lookup
// only, so a client cannot grow the interner (and, striped, the lock
// table's word array) by sending junk names.
func TestRejectedRegistrationsLeaveInternerUnchanged(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			store := entity.NewStore(map[string]int64{"a": 0})
			s := New(Config{Store: store, Strategy: MCS, Stripes: stripes})
			before := store.Interner().Len()
			for i := 0; i < 1000; i++ {
				p := txn.NewProgram("ghost").LockX("a").LockS(fmt.Sprintf("ghost%d", i)).MustBuild()
				if _, err := s.Register(p); err == nil {
					t.Fatalf("program locking ghost%d registered", i)
				}
			}
			if got := store.Interner().Len(); got != before {
				t.Fatalf("interner grew from %d to %d names on rejected registrations", before, got)
			}
			// Rejections consume no transaction ID and leave the engine
			// serving valid programs.
			id := s.MustRegister(txn.NewProgram("ok").LockX("a").MustBuild())
			if id != 1 {
				t.Fatalf("first accepted registration got %v, want T1", id)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegisterCheckedReusesAnalysis pins the admit-once contract: the
// engine keeps the analysis txn.Check computed rather than analyzing
// the program again, and refuses the zero Checked.
func TestRegisterCheckedReusesAnalysis(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := New(Config{Store: store, Strategy: MCS})
	c, err := txn.Check(txn.NewProgram("t").Local("x", 0).LockX("a").Read("a", "x").LockS("b").MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.RegisterChecked(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.txns[id].analysis; got != c.Analysis() {
		t.Fatal("RegisterChecked re-analyzed the program instead of reusing its analysis")
	}
	if _, err := s.RegisterChecked(txn.Checked{}); !errors.Is(err, ErrUnchecked) {
		t.Fatalf("RegisterChecked(zero) = %v, want ErrUnchecked", err)
	}
}

// TestRetireMatchesInspection pins Retire to the three calls it
// replaces: the same counters as TxnStatsOf, the same locals as Locals
// (in LocalNames order), and the transaction forgotten — and before
// commit, an error that forgets nothing.
func TestRetireMatchesInspection(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 5, "b": 7})
	s := New(Config{Store: store, Strategy: MCS})
	c, err := txn.Check(txn.NewProgram("t").Local("y", 1).Local("x", 0).
		LockX("a").Read("a", "x").LockS("b").Read("b", "y").MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.RegisterChecked(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Retire(id, nil); err == nil {
		t.Fatal("Retire of a running transaction succeeded")
	}
	for {
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == Committed {
			break
		}
	}
	wantStats := s.TxnStatsOf(id)
	locals, err := s.Locals(id)
	if err != nil {
		t.Fatal(err)
	}
	st, vals, err := s.Retire(id, []int64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if st != wantStats {
		t.Fatalf("Retire stats = %+v, want %+v", st, wantStats)
	}
	names := c.Analysis().LocalNames
	if len(vals) != 1+len(names) || vals[0] != -1 {
		t.Fatalf("Retire locals = %v, want [-1] followed by %d values", vals, len(names))
	}
	for i, name := range names {
		if vals[1+i] != locals[name] {
			t.Fatalf("Retire local %s = %d, want %d", name, vals[1+i], locals[name])
		}
	}
	if _, err := s.Status(id); err == nil {
		t.Fatal("retired transaction still registered")
	}
	if _, _, err := s.Retire(id, nil); err == nil {
		t.Fatal("second Retire succeeded")
	}
}
