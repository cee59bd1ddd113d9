package txn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"partialrollback/internal/figures"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// eager is the write-target bookkeeping Analysis used to build during
// validation, computed here the way it was — one pass, maps filled as
// the ops go by — as the oracle for the views Analysis now derives on
// demand.
type eager struct {
	entityLockIndex     map[string]int
	firstWriteLockIndex map[string]int
	writeLockIndexes    map[string][]int
	opTarget            []string
}

func eagerAnalysis(p *txn.Program) eager {
	e := eager{
		entityLockIndex:     map[string]int{},
		firstWriteLockIndex: map[string]int{},
		writeLockIndexes:    map[string][]int{},
		opTarget:            make([]string, len(p.Ops)),
	}
	note := func(target string, li int) {
		if _, ok := e.firstWriteLockIndex[target]; !ok {
			e.firstWriteLockIndex[target] = li
		}
		idxs := e.writeLockIndexes[target]
		if n := len(idxs); n == 0 || idxs[n-1] != li {
			e.writeLockIndexes[target] = append(idxs, li)
		}
	}
	li := 0
	for i, o := range p.Ops {
		switch o.Kind {
		case txn.OpLockS, txn.OpLockX:
			e.entityLockIndex[o.Entity] = li
			li++
		case txn.OpRead:
			note(o.Local, li)
			e.opTarget[i] = "l:" + o.Local
		case txn.OpWrite:
			note(o.Entity, li)
			e.opTarget[i] = "e:" + o.Entity
		case txn.OpCompute:
			note(o.Local, li)
			e.opTarget[i] = "l:" + o.Local
		}
	}
	for _, idxs := range e.writeLockIndexes {
		sort.Ints(idxs)
	}
	return e
}

// staticWellDefined, clusteringIndex and lockSet are the figure-facing
// indexes as computed from the eager maps.
func (e eager) staticWellDefined(n int) []bool {
	wd := make([]bool, n+1)
	for q := range wd {
		wd[q] = true
	}
	for _, idxs := range e.writeLockIndexes {
		for q := idxs[0]; q < idxs[len(idxs)-1] && q <= n; q++ {
			if q >= 0 {
				wd[q] = false
			}
		}
	}
	return wd
}

func (e eager) clusteringIndex() int {
	total := 0
	for _, idxs := range e.writeLockIndexes {
		if len(idxs) > 1 {
			total += idxs[len(idxs)-1] - idxs[0]
		}
	}
	return total
}

func (e eager) lockSet() []string {
	out := make([]string, 0, len(e.entityLockIndex))
	for ent := range e.entityLockIndex {
		out = append(out, ent)
	}
	sort.Strings(out)
	return out
}

// checkDerived compares every derived view of p's Analysis with the
// eager oracle.
func checkDerived(t *testing.T, label string, p *txn.Program) {
	t.Helper()
	a := txn.Analyze(p)
	want := eagerAnalysis(p)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"EntityLockIndex", a.EntityLockIndex(), want.entityLockIndex},
		{"FirstWriteLockIndex", a.FirstWriteLockIndex(), want.firstWriteLockIndex},
		{"WriteLockIndexes", a.WriteLockIndexes(), want.writeLockIndexes},
		{"OpTargets", a.OpTargets(), want.opTarget},
		{"StaticWellDefined", a.StaticWellDefined(), want.staticWellDefined(a.NumLocks())},
		{"ClusteringIndex", a.ClusteringIndex(), want.clusteringIndex()},
		{"LockSet", a.LockSet(), want.lockSet()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s = %v, want %v\n%s", label, c.name, c.got, c.want, p)
		}
	}
	for target, u := range want.firstWriteLockIndex {
		if rho, ok := a.RestorabilityIndex(target); !ok || rho != u-1 {
			t.Fatalf("%s: RestorabilityIndex(%q) = %d, %v; want %d", label, target, rho, ok, u-1)
		}
	}
	if _, ok := a.RestorabilityIndex("never-written"); ok {
		t.Fatalf("%s: RestorabilityIndex of an unwritten target reported ok", label)
	}
}

// TestDerivedViewsMatchEagerAnalysis pins the on-demand write views to
// what the eager analysis computed: on the paper's figure programs, on
// generated workloads of every write shape, and on a seeded sweep of
// random programs, including ones that break the static rules (Analyze
// is best-effort there, and must stay the same best effort).
func TestDerivedViewsMatchEagerAnalysis(t *testing.T) {
	for _, p := range []*txn.Program{
		figures.Figure4T(true), figures.Figure4T(false),
		figures.Figure5Clustered(), figures.Figure5ThreePhase(),
	} {
		checkDerived(t, p.Name, p)
	}
	for _, shape := range []sim.WriteShape{sim.Scattered, sim.Clustered, sim.ThreePhase, sim.Mixed} {
		w := sim.Generate(sim.GenConfig{Txns: 40, LocksPerTxn: 6, SharedProb: 0.3, RewriteProb: 0.5, Shape: shape, Seed: 13})
		for i, p := range w.Programs {
			checkDerived(t, fmt.Sprintf("%v #%d", shape, i), p)
		}
	}
	rng := rand.New(rand.NewSource(20240917))
	for i := 0; i < 500; i++ {
		checkDerived(t, fmt.Sprintf("random #%d", i), randomProgram(rng))
	}
}

// randomProgram draws ops over a few entities and locals with no regard
// for the static rules: repeated locks, writes to unlocked entities and
// locals shadowing entity names all occur.
func randomProgram(rng *rand.Rand) *txn.Program {
	ents := []string{"a", "b", "c", "d", "x"}
	locals := []string{"x", "y", "z"}
	p := &txn.Program{Name: "rand", Locals: map[string]int64{}}
	for _, l := range locals[:1+rng.Intn(len(locals))] {
		p.Locals[l] = rng.Int63n(10)
	}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	for n := rng.Intn(24); n > 0; n-- {
		var o txn.Op
		switch k := rng.Intn(8); k {
		case 0:
			o = txn.Op{Kind: txn.OpLockS, Entity: pick(ents)}
		case 1, 2:
			o = txn.Op{Kind: txn.OpLockX, Entity: pick(ents)}
		case 3:
			o = txn.Op{Kind: txn.OpRead, Entity: pick(ents), Local: pick(locals)}
		case 4:
			o = txn.Op{Kind: txn.OpWrite, Entity: pick(ents), Expr: value.Add(value.L(pick(locals)), value.C(1))}
		case 5:
			o = txn.Op{Kind: txn.OpCompute, Local: pick(locals), Expr: value.C(rng.Int63n(5))}
		case 6:
			o = txn.Op{Kind: txn.OpUnlock, Entity: pick(ents)}
		case 7:
			o = txn.Op{Kind: txn.OpDeclareLastLock}
		}
		p.Ops = append(p.Ops, o)
	}
	p.Ops = append(p.Ops, txn.Op{Kind: txn.OpCommit})
	return p
}
