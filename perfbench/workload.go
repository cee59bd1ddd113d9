package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// workload is one traffic mix. Everything not named here is
// cmd/prserver's default (strategy mcs, policy ordered-min-cost,
// burst 1, stripes 1, shards 1, store mem), so a later change to a
// default shows up in the benchmark.
type workload struct {
	name string
	why  string
	// durable runs single-entity increments (the sum of all entities
	// equals the acknowledged commits) on the paged store under a WAL
	// and a checkpointer; otherwise programs are k-way transfers that
	// conserve the sum, on the memory store.
	durable  bool
	entities int
	hotSet   int     // the first hotSet entities are hot
	hotProb  float64 // probability a lock targets the hot set
	shared   float64 // probability a transfer lock is shared
	streams  int
}

// Settings shared by every workload.
const (
	sockets   = 2    // client.Mux sockets the streams are spread over
	initValue = 1000 // initial value of each transfer entity

	// Transfer programs.
	xferLocks   = 4   // distinct entities locked per transfer
	padOps      = 2   // compute ops per lock interval
	rewriteProb = 0.4 // probability an earlier X entity is rewritten per later interval

	// durable-outofcore storage settings.
	pageSize    = 4096
	poolPages   = 16
	groupWindow = 2 * time.Millisecond
	groupMax    = 64
	ckptBytes   = 256 << 10
	// minCheckpoints is how many checkpoints a durable window must see.
	minCheckpoints = 3
)

var workloads = []*workload{
	{
		name: "hotspot-interleaved",
		why: "E22 shape at step-at-a-time execution: lock wait, deadlock detection " +
			"and MCS partial rollback do most of the work",
		entities: 64, hotSet: 8, hotProb: 0.6, shared: 0.2, streams: 16,
	},
	{
		name: "uniform-readmostly",
		why: "almost no conflicts, so wire decode, admission and GC dominate; " +
			"drives shared locks beside writes",
		entities: 4096, shared: 0.75, streams: 16,
	},
	{
		name: "durable-outofcore",
		why: "group-commit wait, page misses and checkpoint stalls dominate; " +
			"the entity set is ~25x the buffer pool",
		durable: true, entities: 200000, streams: 32,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) describe() string {
	if w.durable {
		return fmt.Sprintf("counter increments over %d entities, %d streams on %d sockets, store paged "+
			"(page %d B, pool %d pages), wal fsync group (window %v, max batch %d), checkpoint every %d KiB",
			w.entities, w.streams, sockets, pageSize, poolPages, groupWindow, groupMax, ckptBytes>>10)
	}
	return fmt.Sprintf("%d-way conserving transfers over %d entities (hot set %d at p=%.1f), %d pad ops, "+
		"%.0f%% shared locks, scattered writes (rewrite p=%.1f), %d streams on %d sockets, store mem",
		xferLocks, w.entities, w.hotSet, w.hotProb, padOps, w.shared*100, rewriteProb, w.streams, sockets)
}

// spec is one generated program in compact form; program builds it.
type spec struct {
	ents   [xferLocks]int32
	n      uint8
	shared uint8 // bit k: lock k is shared
	// rewrite bit pairBit(k, j), j < k: interval k rewrites entity j.
	rewrite uint8
	delta   [xferLocks]int8
}

func pairBit(k, j int) uint8 { return 1 << (k*(k-1)/2 + j) }

// source is one stream's program source: a generator seeded by the
// run's seed and the stream, and how many programs it has yielded.
type source struct {
	rng   *rand.Rand
	drawn int64
}

// generators returns one seeded source per stream. Each stream's
// inputs are the sequence of specs its source yields, so the same seed
// gives the same inputs. They are drawn as the stream goes (well under
// a microsecond each) rather than stored: a stored input of tens of
// megabytes would be live heap that a real server does not carry, and
// it would slow the garbage collector's pace. regenerate recovers what
// a window sent from the draw counts alone.
func (w *workload) generators(seed int64) []*source {
	out := make([]*source, w.streams)
	for s := range out {
		out[s] = &source{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(s)))}
	}
	return out
}

func (w *workload) next(src *source) spec {
	src.drawn++
	return w.genSpec(src.rng)
}

// regenerate returns the specs stream s drew between its from[s]th and
// to[s]th program for every stream, interleaved one stream at a time
// so that any prefix spreads over the streams.
func (w *workload) regenerate(seed int64, from, to []int64) []spec {
	gens := w.generators(seed)
	n := int64(0)
	for s, src := range gens {
		for src.drawn < from[s] {
			w.next(src)
		}
		n += to[s] - from[s]
	}
	out := make([]spec, 0, n)
	for int64(len(out)) < n {
		for s, src := range gens {
			if src.drawn < to[s] {
				out = append(out, w.next(src))
			}
		}
	}
	return out
}

func (w *workload) genSpec(rng *rand.Rand) spec {
	var s spec
	if w.durable {
		s.ents[0] = int32(rng.Intn(w.entities))
		s.n = 1
		return s
	}
	for int(s.n) < xferLocks {
		var e int32
		if w.hotSet > 0 && rng.Float64() < w.hotProb {
			e = int32(rng.Intn(w.hotSet))
		} else {
			e = int32(rng.Intn(w.entities))
		}
		dup := false
		for _, x := range s.ents[:s.n] {
			dup = dup || x == e
		}
		if !dup {
			s.ents[s.n] = e
			s.n++
		}
	}
	var xs []int
	for k := 0; k < xferLocks; k++ {
		if rng.Float64() < w.shared {
			s.shared |= 1 << k
		} else {
			xs = append(xs, k)
		}
		for j := 0; j < k; j++ {
			if rng.Float64() < rewriteProb {
				s.rewrite |= pairBit(k, j)
			}
		}
	}
	// Deltas over the exclusive entities sum to zero, so every commit
	// conserves the store's sum.
	sum := 0
	for i, k := range xs {
		if i == len(xs)-1 {
			s.delta[k] = int8(-sum)
			break
		}
		d := 1 + rng.Intn(9)
		if rng.Intn(2) == 0 {
			d = -d
		}
		s.delta[k] = int8(d)
		sum += d
	}
	return s
}

// names interns entity and local names so building a program inside
// the timed window does no formatting.
type names struct {
	ents                 []string
	vals, scratch        [xferLocks]string
	valExpr, scratchExpr [xferLocks]value.Expr
}

func newNames(entities int) *names {
	n := &names{ents: make([]string, entities)}
	for i := range n.ents {
		n.ents[i] = "e" + strconv.Itoa(i)
	}
	for k := 0; k < xferLocks; k++ {
		n.vals[k] = "v" + strconv.Itoa(k)
		n.scratch[k] = "s" + strconv.Itoa(k)
		n.valExpr[k] = value.L(n.vals[k])
		n.scratchExpr[k] = value.L(n.scratch[k])
	}
	return n
}

var (
	one    = value.C(1)
	accExp = value.L("acc")
)

// program builds the transaction for s. Transfers follow the scattered
// shape of internal/sim: each interval locks, reads, pads, threads an
// accumulator, writes its own entity when exclusive and rewrites
// earlier exclusive entities. Every write of entity k stores v_k+d_k,
// so rewrites are idempotent and the sum is conserved. Programs carry
// one name per workload, so equal inputs encode to equal bytes.
func (w *workload) program(s *spec, nm *names) *txn.Program {
	if w.durable {
		e := nm.ents[s.ents[0]]
		return &txn.Program{
			Name:   "inc",
			Locals: map[string]int64{"v": 0},
			Ops: []txn.Op{
				{Kind: txn.OpLockX, Entity: e},
				{Kind: txn.OpRead, Entity: e, Local: "v"},
				{Kind: txn.OpWrite, Entity: e, Expr: value.Add(value.L("v"), one)},
				{Kind: txn.OpCommit},
			},
		}
	}
	n := int(s.n)
	p := &txn.Program{
		Name:   "xfer",
		Locals: make(map[string]int64, 2*n+1),
		Ops:    make([]txn.Op, 0, n*(4+padOps+n)+1),
	}
	p.Locals["acc"] = 0
	write := func(k int) {
		p.Ops = append(p.Ops, txn.Op{Kind: txn.OpWrite, Entity: nm.ents[s.ents[k]],
			Expr: value.Add(nm.valExpr[k], value.C(int64(s.delta[k])))})
	}
	exclusive := func(k int) bool { return s.shared&(1<<k) == 0 }
	for k := 0; k < n; k++ {
		p.Locals[nm.vals[k]] = 0
		p.Locals[nm.scratch[k]] = 0
		e := nm.ents[s.ents[k]]
		kind := txn.OpLockX
		if !exclusive(k) {
			kind = txn.OpLockS
		}
		p.Ops = append(p.Ops,
			txn.Op{Kind: kind, Entity: e},
			txn.Op{Kind: txn.OpRead, Entity: e, Local: nm.vals[k]})
		for i := 0; i < padOps; i++ {
			p.Ops = append(p.Ops, txn.Op{Kind: txn.OpCompute, Local: nm.scratch[k],
				Expr: value.Add(nm.scratchExpr[k], one)})
		}
		p.Ops = append(p.Ops, txn.Op{Kind: txn.OpCompute, Local: "acc",
			Expr: value.Add(accExp, nm.valExpr[k])})
		if exclusive(k) {
			write(k)
		}
		for j := 0; j < k; j++ {
			if exclusive(j) && s.rewrite&pairBit(k, j) != 0 {
				write(j)
			}
		}
	}
	p.Ops = append(p.Ops, txn.Op{Kind: txn.OpCommit})
	return p
}
