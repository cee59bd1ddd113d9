package txn

import (
	"fmt"
	"slices"
	"sort"
)

// LockRequest describes one lock request site in a program.
type LockRequest struct {
	// OpIndex is the position of the request in Program.Ops.
	OpIndex int
	// Entity is the requested entity.
	Entity string
	// Exclusive is true for LockX.
	Exclusive bool
	// LockIndex is the number of lock requests strictly before this
	// one; equivalently, the index of the lock state immediately
	// preceding the request (paper §4).
	LockIndex int
}

// Analysis holds static facts about a program used by the rollback
// machinery and by the §5 structure experiments.
//
// The fields are what every engine reads on the served path: the lock
// requests (admission resolves their entities) and the slot plan for
// locals. The per-target write views the figures, the single-copy
// strategies and the shard router need (EntityLockIndex,
// FirstWriteLockIndex, WriteLockIndexes, OpTargets and the indexes
// built on them) are methods that derive their result from the program
// on each call, so admission never pays for them. An Analysis is
// immutable once built — a txn.Checked, and with it its Analysis, may
// be shared by concurrent registrations (internal/shard hands one to
// its shards) — so the derived views are never cached in it.
type Analysis struct {
	// Requests lists the program's lock requests in order; the k-th
	// entry has LockIndex k.
	Requests []LockRequest
	// LockIndexOf[i] is the lock index of Ops[i]: the number of lock
	// requests strictly before op i.
	LockIndexOf []int

	// The fields below are the execution plan for the allocation-free
	// hot path: locals resolved to dense slots at analysis time, so
	// Step indexes a slice instead of hashing strings. Expressions stay
	// in tree form — every driver registers a program exactly once, so
	// value.EvalSlots over the tree beats any per-Register compilation.

	// LocalNames lists the program's local variables in slot order
	// (sorted by name); LocalSlot is the inverse mapping. Engines share
	// both (value.EvalSlots, mcs.NewSlots) and must not modify them.
	LocalNames []string
	LocalSlot  map[string]int
	// InitLocals[s] is the declared initial value of slot s.
	InitLocals []int64
	// OpLocalSlot[i] is the slot of Ops[i].Local, or -1 when op i has
	// no local operand.
	OpLocalSlot []int

	// ops is the analyzed program's operation list, the source of the
	// derived write views.
	ops []Op
}

// Checked is a program that passed validation, paired with the Analysis
// the same ValidateAnalyze call computed for it. Only this package
// constructs one (Check, Builder.BuildChecked), so an engine handed a
// Checked can register it without validating again and can never see an
// analysis of a different program. The zero value holds no program.
// Like every Program, the checked one must not be mutated.
type Checked struct {
	prog     *Program
	analysis *Analysis
}

// Check validates p and returns it paired with its Analysis, from one
// ValidateAnalyze traversal.
func Check(p *Program) (Checked, error) {
	a, err := ValidateAnalyze(p)
	if err != nil {
		return Checked{}, err
	}
	return Checked{prog: p, analysis: a}, nil
}

// Program returns the checked program (nil for the zero Checked).
func (c Checked) Program() *Program { return c.prog }

// Analysis returns the program's static analysis (nil for the zero
// Checked).
func (c Checked) Analysis() *Analysis { return c.analysis }

// Analyze computes the static Analysis for p. The program is assumed
// valid (see Validate); on an invalid program the returned analysis is
// best-effort. It is a thin wrapper over ValidateAnalyze.
func Analyze(p *Program) *Analysis {
	a, _ := ValidateAnalyze(p)
	return a
}

// ValidateAnalyze checks p against the §2 static rules (see Validate
// for the full list) and computes its Analysis in the same traversal of
// p.Ops — registration used to walk the program twice (validate, then
// analyze), now it walks once. Lock holdings are tracked in a small
// slice instead of a map, and expression references are checked by
// walking the tree directly instead of materializing a reference list,
// so validation itself stays off the allocator for typical programs.
//
// The analysis is always returned, complete to the extent the program
// allows; the error is the first rule violation, exactly as Validate
// reports it.
func ValidateAnalyze(p *Program) (*Analysis, error) {
	// One backing array serves both per-op index slices, and Requests
	// is sized by a counting pass, so analysis allocates a fixed
	// handful of objects whatever the program's length.
	nops, nreq := len(p.Ops), 0
	for i := range p.Ops {
		if p.Ops[i].Kind.IsLockRequest() {
			nreq++
		}
	}
	perOp := make([]int, 2*nops)
	a := &Analysis{
		Requests:    make([]LockRequest, 0, nreq),
		LockIndexOf: perOp[:nops:nops],
		OpLocalSlot: perOp[nops:],
		ops:         p.Ops,
	}
	a.LocalNames = make([]string, 0, len(p.Locals))
	for name := range p.Locals {
		a.LocalNames = append(a.LocalNames, name)
	}
	sort.Strings(a.LocalNames)
	a.LocalSlot = make(map[string]int, len(a.LocalNames))
	a.InitLocals = make([]int64, len(a.LocalNames))
	for s, name := range a.LocalNames {
		a.LocalSlot[name] = s
		a.InitLocals[s] = p.Locals[name]
	}

	var firstErr error
	if p.Name == "" {
		firstErr = fmt.Errorf("txn: program must have a name")
	}
	// held tracks current lock holdings as a slice: programs lock a
	// handful of entities, so a linear scan beats a map and allocates
	// nothing beyond the one backing array.
	type heldLock struct {
		entity string
		kind   OpKind
	}
	held := make([]heldLock, 0, 8)
	findHeld := func(entity string) int {
		for k := range held {
			if held[k].entity == entity {
				return k
			}
		}
		return -1
	}
	unlocked := false
	declaredLast := false
	seenLock := false
	li := 0
	for i, o := range p.Ops {
		fail := func(format string, args ...any) {
			if firstErr == nil {
				firstErr = fmt.Errorf("txn %s: op %d (%s): %s", p.Name, i, o, fmt.Sprintf(format, args...))
			}
		}
		a.LockIndexOf[i] = li
		a.OpLocalSlot[i] = -1
		if o.Local != "" {
			if s, ok := a.LocalSlot[o.Local]; ok {
				a.OpLocalSlot[i] = s
			}
		}
		if i != len(p.Ops)-1 && o.Kind == OpCommit {
			fail("Commit before end of program")
		}
		switch o.Kind {
		case OpLockS, OpLockX:
			if unlocked {
				fail("lock request after unlock violates two-phase rule")
			}
			if _, clash := p.Locals[o.Entity]; clash {
				// Analysis tracks write targets by name; entity and
				// local namespaces must therefore be disjoint.
				fail("entity %q collides with a local variable name", o.Entity)
			}
			if declaredLast {
				fail("lock request after DeclareLastLock")
			}
			if findHeld(o.Entity) >= 0 {
				fail("entity %q already locked", o.Entity)
			}
			if o.Entity == "" {
				fail("lock request without entity")
			}
			held = append(held, heldLock{entity: o.Entity, kind: o.Kind})
			seenLock = true
			a.Requests = append(a.Requests, LockRequest{
				OpIndex:   i,
				Entity:    o.Entity,
				Exclusive: o.Kind == OpLockX,
				LockIndex: li,
			})
			li++
		case OpUnlock:
			if k := findHeld(o.Entity); k < 0 {
				fail("unlock of entity %q not held", o.Entity)
			} else {
				held = append(held[:k], held[k+1:]...)
			}
			unlocked = true
		case OpRead:
			if findHeld(o.Entity) < 0 {
				fail("read of unlocked entity %q", o.Entity)
			}
			if _, ok := p.Locals[o.Local]; !ok {
				fail("read into undeclared local %q", o.Local)
			}
		case OpWrite:
			if !seenLock {
				fail("write before first lock request")
			}
			if k := findHeld(o.Entity); k < 0 || held[k].kind != OpLockX {
				fail("write to entity %q requires a held exclusive lock", o.Entity)
			}
			if err := checkRefs(p, o.Expr); err != nil {
				fail("%v", err)
			}
		case OpCompute:
			if !seenLock {
				fail("compute before first lock request")
			}
			if _, ok := p.Locals[o.Local]; !ok {
				fail("compute into undeclared local %q", o.Local)
			}
			if err := checkRefs(p, o.Expr); err != nil {
				fail("%v", err)
			}
		case OpDeclareLastLock:
			if declaredLast {
				fail("DeclareLastLock repeated")
			}
			declaredLast = true
		case OpCommit:
			// position checked above
		default:
			fail("unknown op kind")
		}
	}
	if firstErr == nil && (len(p.Ops) == 0 || p.Ops[len(p.Ops)-1].Kind != OpCommit) {
		firstErr = fmt.Errorf("txn %s: program must end with Commit", p.Name)
	}
	return a, firstErr
}

// writeTarget returns the target op o writes — its destination local
// for Read and Compute (a read assigns its local: a local write for
// rollback purposes), its entity for Write — and whether that target
// is a local. ok is false for ops that write nothing.
func writeTarget(o *Op) (target string, local, ok bool) {
	switch o.Kind {
	case OpRead, OpCompute:
		return o.Local, true, true
	case OpWrite:
		return o.Entity, false, true
	}
	return "", false, false
}

// EntityLockIndex maps each locked entity to the LockIndex of its
// request. Derived from Requests on each call.
func (a *Analysis) EntityLockIndex() map[string]int {
	out := make(map[string]int, len(a.Requests))
	for _, r := range a.Requests {
		out[r.Entity] = r.LockIndex
	}
	return out
}

// FirstWriteLockIndex maps each written target (entity or local) to
// the lock index of its first write; the paper's index of
// restorability is this minus one. Derived on each call.
func (a *Analysis) FirstWriteLockIndex() map[string]int {
	w := a.WriteLockIndexes()
	out := make(map[string]int, len(w))
	for target, idxs := range w {
		out[target] = idxs[0]
	}
	return out
}

// WriteLockIndexes maps each written target to the sorted distinct
// lock indexes at which it is written. Derived on each call.
func (a *Analysis) WriteLockIndexes() map[string][]int {
	out := map[string][]int{}
	for i := range a.ops {
		target, _, ok := writeTarget(&a.ops[i])
		if !ok {
			continue
		}
		li := a.LockIndexOf[i]
		idxs := out[target]
		// Lock indexes never decrease along the ops, so appending each
		// new one keeps the list sorted and distinct.
		if n := len(idxs); n == 0 || idxs[n-1] != li {
			out[target] = append(idxs, li)
		}
	}
	return out
}

// OpTargets returns, for each op, its state-dependency-graph write
// target key: "e:<entity>" for entity writes, "l:<local>" for local
// writes (reads included), "" when the op writes nothing. The
// single-copy strategies derive it once per registration, so their
// step path does not concatenate strings per write.
func (a *Analysis) OpTargets() []string {
	out := make([]string, len(a.ops))
	for i := range a.ops {
		if target, local, ok := writeTarget(&a.ops[i]); ok {
			if local {
				out[i] = "l:" + target
			} else {
				out[i] = "e:" + target
			}
		}
	}
	return out
}

// NumLocks returns the number of lock requests in the program.
func (a *Analysis) NumLocks() int { return len(a.Requests) }

// RestorabilityIndex returns the paper's index of restorability for the
// given write target: the lock index of the last lock state preceding
// its first write, i.e. FirstWriteLockIndex-1. The second result is
// false if the target is never written (every state is restorable for
// it).
func (a *Analysis) RestorabilityIndex(target string) (int, bool) {
	for i := range a.ops {
		if t, _, ok := writeTarget(&a.ops[i]); ok && t == target {
			return a.LockIndexOf[i] - 1, true
		}
	}
	return 0, false
}

// StaticWellDefined reports, for the completed program (all n lock
// requests executed), which lock states q in [0, n] are well defined
// under the single-copy (state-dependency-graph) strategy: q is
// undefined iff some target has first write at lock index u <= q and a
// later write at lock index j > q (Theorem 4 with the half-open write
// intervals derived in DESIGN.md §2).
func (a *Analysis) StaticWellDefined() []bool {
	n := a.NumLocks()
	wd := make([]bool, n+1)
	for q := range wd {
		wd[q] = true
	}
	for _, idxs := range a.WriteLockIndexes() {
		if len(idxs) == 0 {
			continue
		}
		u := idxs[0]
		j := idxs[len(idxs)-1]
		// States q with u <= q < j are destroyed.
		for q := u; q < j && q <= n; q++ {
			if q >= 0 {
				wd[q] = false
			}
		}
	}
	return wd
}

// WellDefinedCount returns how many of the n+1 lock states of the
// completed program are well defined (including the trivial state 0).
func (a *Analysis) WellDefinedCount() int {
	count := 0
	for _, ok := range a.StaticWellDefined() {
		if ok {
			count++
		}
	}
	return count
}

// ClusteringIndex measures how tightly a program clusters its writes
// per target (§5): it returns the total number of destroyed lock
// states, summed over write targets. Zero means perfectly clustered
// (every target's writes fall within one lock interval); larger values
// mean writes are scattered across lock states.
func (a *Analysis) ClusteringIndex() int {
	total := 0
	for _, idxs := range a.WriteLockIndexes() {
		if len(idxs) > 1 {
			total += idxs[len(idxs)-1] - idxs[0]
		}
	}
	return total
}

// IsThreePhase reports whether the program has the §5 three-phase
// structure: an acquisition phase (lock requests, reads into locals),
// then DeclareLastLock, then an update phase in which every *entity*
// write occurs (§5: "waits to perform write operations to any entity
// until after it performs its last lock request"), then the release
// phase. Reads during acquisition assign locals and are permitted.
func IsThreePhase(p *Program) bool {
	a := Analyze(p)
	n := a.NumLocks()
	declared := false
	li := 0
	for _, o := range p.Ops {
		switch o.Kind {
		case OpDeclareLastLock:
			declared = true
		case OpLockS, OpLockX:
			li++
		case OpWrite:
			if li != n || !declared {
				return false
			}
		}
	}
	return declared
}

// LockSet returns the entities locked by the program, sorted and
// distinct.
func (a *Analysis) LockSet() []string {
	out := make([]string, 0, len(a.Requests))
	for _, r := range a.Requests {
		out = append(out, r.Entity)
	}
	sort.Strings(out)
	return slices.Compact(out)
}
