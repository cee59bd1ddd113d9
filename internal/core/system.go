// Package core implements the paper's contribution: a two-phase-locking
// concurrency control whose deadlock response is partial rollback
// (Fussell, Kedem & Silberschatz, SIGMOD 1981).
//
// A System executes registered transaction programs one atomic
// operation at a time (callers choose the interleaving; see
// internal/sim for deterministic drivers and internal/runtime for a
// goroutine-per-transaction driver). Lock requests follow §2's rules:
// grant when compatible, otherwise wait; when a wait would close a
// cycle in the concurrency graph, a victim-selection policy picks
// transactions to roll back and the system rolls each back just far
// enough to break every cycle — to the lock state preceding its lock on
// a contested entity (multi-copy strategy), to the latest *well-defined*
// such state (single-copy strategy), or to its initial state (total
// restart, the classical baseline the paper generalizes).
package core

import (
	"errors"
	"fmt"
	"sync"

	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/hybrid"
	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/mcs"
	"partialrollback/internal/sdg"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// Strategy selects the rollback implementation (§4).
type Strategy int

// Rollback strategies.
const (
	// Total is the classical total-removal-and-restart baseline: the
	// victim is rolled back to its initial state. One local copy per
	// entity; no monitoring.
	Total Strategy = iota
	// MCS is the multi-lock copy strategy: value stacks allow rollback
	// to any lock state, at up to n(n+1)/2 entity copies (Theorem 3).
	MCS
	// SDG is the single-copy strategy guided by the state-dependency
	// graph: rollback only to well-defined lock states, with no more
	// storage than total restart requires.
	SDG
	// Hybrid is the paper's closing extension: SDG plus a bounded
	// number of checkpoints (extra copies) that make chosen lock states
	// restorable even when write intervals span them. Budget 0 behaves
	// exactly like SDG; an unbounded budget approaches MCS.
	Hybrid
)

func (s Strategy) String() string {
	switch s {
	case Total:
		return "total"
	case MCS:
		return "mcs"
	case SDG:
		return "sdg"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CommitWrite is one (entity, value) pair a committing or unlocking
// transaction installs into the global store — the unit the durability
// layer serializes into a redo log record. Under the paper's deferred
// update discipline (§4) these installs are the only global-state
// mutations the engine ever performs, so logging them is logging
// everything: no undo records exist because uncommitted work lives in
// per-transaction copies that die with the process, and partial
// rollback therefore never touches the log.
type CommitWrite struct {
	Ent  intern.ID
	Name string
	Val  int64
}

// CommitAck is a durability ticket returned by CommitLogger.LogCommit.
// Wait blocks until every write of the acknowledged commit is durable
// (or the log has failed) and must be called outside the engine mutex.
type CommitAck interface {
	Wait() error
}

// CommitLogger receives the engine's install stream. Both methods are
// invoked under the engine mutex, so they must only buffer and enqueue
// — never block on IO (the group-commit fsync happens on the logger's
// own flusher; callers block in CommitAck.Wait, outside the mutex).
//
// LogInstall records an early (shrinking-phase) unlock install; it
// carries no ticket and rides the next flush. Any transaction that can
// observe the installed value must first acquire the entity's lock,
// which happens-after this call under the same engine mutex, so its
// own commit ticket — which waits for the log tail — covers this
// record too.
//
// LogCommit records a committing transaction's whole write-set and
// returns the ticket its client acknowledgement must wait on. A
// read-only commit (empty writes) still gets a ticket: it waits for
// the current log tail, so a commit that observed another
// transaction's writes is never acknowledged before those writes are
// durable.
type CommitLogger interface {
	LogInstall(w CommitWrite)
	LogCommit(writes []CommitWrite) CommitAck
}

// ShardedCommitLogger is a CommitLogger that can hand out one
// independent logger per shard (internal/shard wires ForShard(k) into
// shard k's System so each shard appends to its own log file with its
// own group-commit queue).
type ShardedCommitLogger interface {
	CommitLogger
	ForShard(k int) CommitLogger
}

// Config configures a System.
type Config struct {
	// Store is the global database. Required.
	Store *entity.Store
	// Strategy selects the rollback implementation. Default Total.
	Strategy Strategy
	// Policy selects deadlock victims. Default deadlock.OrderedMinCost
	// (the Theorem 2 safe policy).
	Policy deadlock.Policy
	// RecordHistory enables the serializability recorder.
	RecordHistory bool
	// HistoryClock, when non-nil (and RecordHistory is set), makes the
	// recorder stamp episodes against this shared clock instead of a
	// private one. internal/shard gives every shard's System the same
	// clock so their histories merge onto one global timeline.
	HistoryClock *history.Clock
	// MaxCycles bounds cycle enumeration per detection. Default 64.
	MaxCycles int
	// Prevention replaces detection with a timestamp rule (§3.3
	// distributed operation). Default NoPrevention.
	Prevention Prevention
	// StarvationLimit escalates fairness: when a waiting transaction's
	// conflict survives this many deadlock resolutions it participated
	// in, every strictly-younger holder of its awaited entity is
	// wounded (partially rolled back to release it) — wound-wait applied
	// on demand. Without it, minimal cycle-breaking can starve an old
	// waiter forever while younger transactions re-form cycles around it
	// (found by the randomized soak test). 0 means the default (8);
	// negative disables escalation.
	StarvationLimit int
	// HybridBudget is the per-transaction checkpoint budget for the
	// Hybrid strategy (ignored otherwise). Zero means no checkpoints:
	// the strategy then behaves exactly like SDG.
	HybridBudget int
	// HybridAllocator chooses which lock states the Hybrid strategy
	// checkpoints. Default hybrid.MinGap.
	HybridAllocator hybrid.Allocator
	// CommitLog, when non-nil, receives every install for durable
	// logging (see CommitLogger). Nil keeps the engine memory-only with
	// a byte-identical commit path.
	CommitLog CommitLogger
	// OnEvent, when non-nil, receives every engine event. With Stripes
	// > 1 uncontended grant/unlock events are emitted from concurrently
	// stepping transactions, so the sink must be safe for concurrent
	// use (the observability collector, the exec notifier and the
	// server's session fan-out all are).
	OnEvent func(Event)
	// Stripes partitions the lock table and wait-for graph into this
	// many independently-synchronized stripes over the interned
	// entity-ID space and enables the uncontended fast paths: shared
	// locks grant with a single CAS on the entity's word, uncontended
	// exclusive grants and unlocks touch only one stripe's mutex, and
	// only conflicts, waits, deadlock handling, rollback and commit
	// take the engine's exclusive lock. 0 or 1 keeps the classic
	// single-lock engine, byte-identical to previous releases (pinned
	// by regression test).
	Stripes int
	// LockWait, when non-nil, observes the nanoseconds each engine-lock
	// acquisition on the step path blocked before entering the critical
	// section — the direct measure of how much the engine mutex itself
	// throttles throughput (rendered as pr_engine_lock_wait_ns).
	LockWait func(ns int64)
}

// Status is a transaction's execution status.
type Status int

// Transaction statuses.
const (
	StatusRunning Status = iota
	StatusWaiting
	StatusCommitted
)

func (st Status) String() string {
	switch st {
	case StatusRunning:
		return "running"
	case StatusWaiting:
		return "waiting"
	case StatusCommitted:
		return "committed"
	default:
		return fmt.Sprintf("Status(%d)", int(st))
	}
}

// lockStateRec snapshots the transaction state immediately before a
// lock request: the program counter of the request and the state index
// (atomic-operation count) at that point.
type lockStateRec struct {
	opIndex    int
	stateIndex int64
}

// lockSlot is one lock a transaction currently holds: the entity's
// intern ID, the mode, the lock index of its request, and (for
// exclusive holds) the transaction's local copy of the entity's value.
// The slot list replaces the former copies/heldAt/modes string maps: a
// handful of slots scanned linearly beats three map lookups per
// operation, and a grant appends one record with no allocation.
//
// fast marks a shared lock granted by the striped table's CAS word
// fast path: the lock table holds no record of it (the word just
// counts anonymous holders), so releases must decrement the word
// rather than go through the table, and the exclusive path migrates
// such slots into table holders before any conflicting request needs
// holder identities.
type lockSlot struct {
	ent    intern.ID
	mode   lock.Mode
	heldAt int
	copy   int64
	fast   bool
}

// tstate is the runtime state of one registered transaction.
type tstate struct {
	id       txn.ID
	prog     *txn.Program
	analysis *txn.Analysis
	// opEnt[i] is the interned entity of Ops[i] (intern.None when op i
	// has no entity operand). Read-only after Register.
	opEnt []intern.ID
	entry int64 // entry order (Theorem 2 partial order)

	status     Status
	pc         int
	stateIndex int64
	lockIndex  int

	// locals is indexed by the analysis' local slot (LocalSlot /
	// LocalNames); slots holds the held locks in grant order.
	locals []int64
	slots  []lockSlot

	lockStates []lockStateRec
	waitEntity string
	waitEnt    intern.ID

	// pinned holds the lock-set entity IDs pinned in the paged store at
	// Register (empty on the memory backend). Pins keep those pages
	// resident so every store access on the step fast paths — grants,
	// reads, installs are all against lock-set entities — is a buffer
	// hit; they are released at commit or abort. Partial rollback keeps
	// the transaction registered, so it keeps its pins.
	pinned []intern.ID

	unlocked     bool // entered shrinking phase; never rolled back again
	declaredLast bool
	// starveRounds counts deadlock resolutions this transaction's
	// current wait has survived; reset on grant and on rollback.
	starveRounds int

	mcs *mcs.Copies
	sdg *sdg.Graph
	hyb *hybrid.State
	// opTarget is the analysis' OpTargets, derived at registration for
	// the single-copy strategies (SDG, Hybrid) only; nil otherwise.
	opTarget []string

	stats TxnStats
}

// findSlot returns the slot for ent, or nil if not held.
func (t *tstate) findSlot(ent intern.ID) *lockSlot {
	for i := range t.slots {
		if t.slots[i].ent == ent {
			return &t.slots[i]
		}
	}
	return nil
}

// dropSlot removes ent's slot (order is not significant; name-sorted
// traversals sort on the fly).
func (t *tstate) dropSlot(ent intern.ID) {
	for i := range t.slots {
		if t.slots[i].ent == ent {
			t.slots[i] = t.slots[len(t.slots)-1]
			t.slots = t.slots[:len(t.slots)-1]
			return
		}
	}
}

// nameEnt pairs an entity's name with its intern ID for name-ordered
// release traversals (determinism requires name order, which is not ID
// order: "e10" < "e2" lexicographically).
type nameEnt struct {
	name string
	ent  intern.ID
}

// sortNameEnts sorts by name ascending. Insertion sort: the slices are
// one transaction's held set (a handful of elements) and this compiles
// without the closure allocation of sort.Slice.
func sortNameEnts(s []nameEnt) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].name < s[j-1].name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TxnStats accumulates per-transaction outcomes.
type TxnStats struct {
	// OpsExecuted counts atomic operations executed, including ones
	// later discarded by rollback.
	OpsExecuted int64
	// OpsLost counts operations discarded by rollbacks (the paper's
	// summed rollback cost).
	OpsLost int64
	// Rollbacks counts rollback events; Restarts counts those that went
	// all the way to the initial state.
	Rollbacks int64
	Restarts  int64
	// Waits counts lock requests that had to wait.
	Waits int64
}

// Stats accumulates system-wide outcomes.
type Stats struct {
	Steps     int64
	Grants    int64
	Waits     int64
	Deadlocks int64
	Rollbacks int64
	Restarts  int64
	OpsLost   int64
	Commits   int64
	// VictimsPerDeadlock accumulates victim-set sizes (for S/X
	// multi-cycle analysis).
	Victims int64
	// Wounds and Dies count prevention-mode rollbacks (§3.3).
	Wounds int64
	Dies   int64
	// Escalations counts starvation-limit wound-wait escalations.
	Escalations int64
	// Aborts counts transactions rolled back to their initial state and
	// removed by System.Abort (serving-layer deadlines, disconnects,
	// shutdown drain).
	Aborts int64
}

// waitGraph is the concurrency-graph surface the engine uses —
// implemented by *waitfor.Graph (single-lock engine) and
// *waitfor.Striped (striped engine, per-stripe edge sets merged into
// epoch-validated snapshots for detection).
type waitGraph interface {
	AddTxn(id txn.ID)
	RemoveTxn(id txn.ID)
	AddWaitID(waiter, holder txn.ID, ent intern.ID)
	ClearEntityWaitsID(waiter txn.ID, ent intern.ID)
	RemoveAllWaitsBy(waiter txn.ID)
	CyclesThrough(id txn.ID, limit int) [][]txn.ID
	WaiterCount(holder txn.ID) int
	Label(waiter, holder txn.ID) []string
	Arcs() []waitfor.Arc
	IsForest() bool
	HasCycle() bool
}

// System is the concurrency control. All methods are safe for
// concurrent use; operations are serialized internally, which models
// the paper's single database concurrency control monitoring all
// transactions. With Config.Stripes > 1 the serialization is
// two-tiered: structural operations (waits, deadlock handling,
// rollback, commit, registration, inspection) hold mu exclusively,
// while uncontended lock/step work runs under mu.RLock plus per-stripe
// synchronization inside the lock table — see step_fast.go.
type System struct {
	mu sync.RWMutex

	cfg      Config
	store    *entity.Store
	names    *intern.Table // the store's interner, shared with locks and wf
	locks    *lock.Table
	wf       waitGraph
	policy   deadlock.Policy
	recorder *history.Recorder
	// striped enables the read-lock fast paths (cfg.Stripes > 1).
	striped bool

	txns   map[txn.ID]*tstate
	nextID txn.ID
	entry  int64

	// Scratch buffers reused across operations (guarded by mu held
	// exclusively; fast paths never touch them). Callees never re-enter
	// the operation that owns a buffer, so each is in use by at most
	// one stack frame at a time.
	blockersBuf []txn.ID
	grantsBuf   []lock.GrantID
	holdersBuf  []txn.ID
	queueBuf    []lock.Waiter
	copiesBuf   []hybrid.EntityCopy
	releaseBuf  []nameEnt
	writesBuf   []CommitWrite
	migrateBuf  []txn.ID

	// stats fields written by fast paths (Steps, Grants) use atomic
	// adds there; everything else is guarded by mu held exclusively.
	stats Stats
}

// New creates a System. It panics if cfg.Store is nil (a programming
// error, not a runtime condition).
func New(cfg Config) *System {
	if cfg.Store == nil {
		panic("core: Config.Store is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = deadlock.OrderedMinCost{}
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 64
	}
	if cfg.StarvationLimit == 0 {
		cfg.StarvationLimit = 8
	}
	if cfg.Stripes < 1 {
		cfg.Stripes = 1
	}
	names := cfg.Store.Interner()
	s := &System{
		cfg:     cfg,
		store:   cfg.Store,
		names:   names,
		policy:  cfg.Policy,
		striped: cfg.Stripes > 1,
		txns:    map[txn.ID]*tstate{},
	}
	if s.striped {
		s.locks = lock.NewTableStriped(names, cfg.Stripes)
		s.locks.EnsureEntities(names.Len())
		s.wf = waitfor.NewStriped(names, cfg.Stripes)
	} else {
		s.locks = lock.NewTableInterned(names)
		s.wf = waitfor.NewInterned(names)
	}
	if cfg.RecordHistory {
		if cfg.HistoryClock != nil {
			s.recorder = history.NewSharedClockRecorder(cfg.HistoryClock)
		} else {
			s.recorder = history.NewRecorder()
		}
	}
	return s
}

// Register adds an execution instance of prog and returns its ID. The
// program must be valid (see txn.Validate); Register validates it and
// returns an error otherwise.
func (s *System) Register(prog *txn.Program) (txn.ID, error) {
	c, err := txn.Check(prog)
	if err != nil {
		return txn.None, err
	}
	return s.RegisterChecked(c)
}

// RegisterChecked is Register for a program already validated by
// txn.Check: it reuses the program's analysis instead of validating
// again. Every locked entity must exist in the store; names are
// resolved with lookups only, so a rejected registration leaves the
// interner — and with it the lock table's width — untouched, and it
// consumes no transaction ID.
//
// Only the steps that must be atomic with the engine run under its
// lock: the defined-entity check (by ID), the striped table's width,
// page pins, ID and entry assignment, and insertion into the active
// set and the concurrency graph. Everything that depends only on the
// program — entity resolution through the concurrent-safe interner, the
// per-op entity plan, the locals and the strategy's rollback state — is
// built before the lock is taken (see prepare).
func (s *System) RegisterChecked(c txn.Checked) (txn.ID, error) {
	prog, a := c.Program(), c.Analysis()
	if prog == nil {
		return txn.None, ErrUnchecked
	}
	t := s.prepare(prog, a)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Check the lock set first so execution cannot fail mid-flight on
	// an undefined entity. Checked per registration (not per plan): the
	// store's defined set can change via Restore. Validation guarantees
	// every other entity operand (read, write, unlock) names a lock-set
	// entity, so checking the requests checks them all. A name the
	// interner never saw resolved to intern.None, which reads as
	// undefined.
	for _, r := range a.Requests {
		if _, ok := s.store.GetID(t.opEnt[r.OpIndex]); !ok {
			return txn.None, fmt.Errorf("core: program %s locks undefined entity %q", prog.Name, r.Entity)
		}
	}
	if s.striped {
		// Cover every entity defined since the last registration so the
		// fast paths index the word table without bounds surprises.
		s.locks.EnsureEntities(s.names.Len())
	}
	// Paged backend: pin the lock set resident now, on the structural
	// path where IO is allowed, so no later step — including the Tier
	// A/B fast paths, which never take the exclusive engine lock —
	// faults a page in. Every engine store access (grant copies, shared
	// reads, installs) is against a lock-set entity, so pinning here
	// covers them all.
	if s.store.Paged() {
		for _, r := range a.Requests {
			ent := t.opEnt[r.OpIndex]
			if err := s.store.PinID(ent); err != nil {
				s.unpinAll(t)
				return txn.None, fmt.Errorf("core: program %s pin %q: %w", prog.Name, r.Entity, err)
			}
			t.pinned = append(t.pinned, ent)
		}
	}
	s.nextID++
	s.entry++
	t.id, t.entry = s.nextID, s.entry
	s.txns[t.id] = t
	s.wf.AddTxn(t.id)
	s.emit(Event{Kind: EventRegister, Txn: t.id, Detail: prog.Name})
	return t.id, nil
}

// prepare builds the transaction state RegisterChecked installs, from
// the program, its analysis and the interner alone — no engine state —
// so it runs before the engine lock is taken. Lock-request entities
// the interner has never seen resolve to intern.None; the locked check
// rejects them (a name that was never interned was never defined).
func (s *System) prepare(prog *txn.Program, a *txn.Analysis) *tstate {
	opEnt := make([]intern.ID, len(prog.Ops))
	for i := range opEnt {
		opEnt[i] = intern.None
	}
	for _, r := range a.Requests {
		if ent, ok := s.names.Lookup(r.Entity); ok {
			opEnt[r.OpIndex] = ent
		}
	}
	// Every other entity operand names a lock-set entity (validation),
	// so it takes its request's ID: a short scan instead of another
	// interner lookup per operand.
	for i := range prog.Ops {
		o := &prog.Ops[i]
		if o.Entity == "" || o.Kind.IsLockRequest() {
			continue
		}
		for _, r := range a.Requests {
			if r.Entity == o.Entity {
				opEnt[i] = opEnt[r.OpIndex]
				break
			}
		}
	}
	// Held slots and lock-state records are bounded by the request
	// count, so both are sized once here instead of grown per grant.
	t := &tstate{
		prog:       prog,
		analysis:   a,
		opEnt:      opEnt,
		status:     StatusRunning,
		locals:     make([]int64, len(a.InitLocals)),
		slots:      make([]lockSlot, 0, len(a.Requests)),
		lockStates: make([]lockStateRec, 0, len(a.Requests)),
		waitEnt:    intern.None,
	}
	copy(t.locals, a.InitLocals)
	if s.store.Paged() {
		t.pinned = make([]intern.ID, 0, len(a.Requests))
	}
	switch s.cfg.Strategy {
	case MCS:
		t.mcs = mcs.NewSlots(s.names, a.LocalNames, a.LocalSlot, a.InitLocals, len(a.Requests))
	case SDG:
		t.sdg = sdg.New()
		t.opTarget = a.OpTargets()
	case Hybrid:
		budget := s.cfg.HybridBudget
		if budget < 0 {
			budget = 0
		}
		t.hyb = hybrid.New(a, budget, s.cfg.HybridAllocator)
		t.sdg = t.hyb.SDG()
		t.opTarget = a.OpTargets()
	}
	return t
}

// ErrUnchecked rejects the zero txn.Checked, which carries no program.
var ErrUnchecked = errors.New("core: program was not checked (zero txn.Checked)")

// unpinAll releases every page pin t holds (no-op on the memory
// backend, where t.pinned is never populated). Called at commit and
// abort — the two points a transaction leaves the active set.
func (s *System) unpinAll(t *tstate) {
	for _, ent := range t.pinned {
		s.store.UnpinID(ent)
	}
	t.pinned = t.pinned[:0]
}

// MustRegister is Register that panics on error (fixtures and tests).
func (s *System) MustRegister(prog *txn.Program) txn.ID {
	id, err := s.Register(prog)
	if err != nil {
		panic(err)
	}
	return id
}

func (s *System) get(id txn.ID) (*tstate, error) {
	t, ok := s.txns[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown transaction %v", id)
	}
	return t, nil
}

func (s *System) emit(e Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(e)
	}
}
