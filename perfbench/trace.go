package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/durable"
	"partialrollback/internal/txn"
)

// ival is a half-open time interval in nanoseconds since a tracer's base.
type ival struct{ start, end int64 }

// span is one traced interval: name is "<layer>.<what>", parent indexes
// the enclosing span in the same slice (-1 for a root), and spans of
// one transaction share txn.
type span struct {
	name       string
	start, end int64
	parent     int
	txn        int64
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// covered returns how much of w the union of ivs covers.
func covered(w ival, ivs []ival) int64 {
	clipped := make([]ival, 0, len(ivs))
	for _, v := range ivs {
		v.start, v.end = max(v.start, w.start), min(v.end, w.end)
		if v.end > v.start {
			clipped = append(clipped, v)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = w.start
	for _, v := range clipped {
		if v.start > reach {
			reach = v.start
		}
		if v.end > reach {
			total += v.end - reach
			reach = v.end
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover; overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]ival, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], ival{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.end - s.start) - covered(ival{s.start, s.end}, kids[i])
	}
	return out
}

// minus returns the parts of w not covered by cut.
func minus(w ival, cut []ival) []ival {
	out := []ival{w}
	for _, c := range cut {
		var next []ival
		for _, v := range out {
			if c.end <= v.start || c.start >= v.end {
				next = append(next, v)
				continue
			}
			if c.start > v.start {
				next = append(next, ival{v.start, c.start})
			}
			if c.end < v.end {
				next = append(next, ival{c.end, v.end})
			}
		}
		out = next
	}
	return out
}

// txnRec is what the engine's event stream says about one transaction.
type txnRec struct {
	register, commit int64
	waitFrom         int64 // start of the open lock wait, -1 if none
	waits, misses    []ival
}

// tracer receives the layer hooks of one traced instance. The engine
// calls onEvent and onMiss under its own mutex, so they only record.
type tracer struct {
	base time.Time

	mu          sync.Mutex
	open        map[txn.ID]*txnRec
	pendingMiss []ival
	flushes     []ival // start of the batch's fsync .. its end
	quiesces    []ival
	sums        tracerSums

	mutexWaitNS atomic.Int64
}

// tracerSums are the tracer's running totals; windows report their
// differences.
type tracerSums struct {
	rollbacks, depthSum int64
	missNS, misses      int64
	fsyncNS, fsyncs     int64
	mutexWaitNS         int64
}

func (t *tracer) totals() tracerSums {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sums
	s.mutexWaitNS = t.mutexWaitNS.Load()
	return s
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: map[txn.ID]*txnRec{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) onEvent(e core.Event) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Kind == core.EventRegister {
		// Page misses happen while Register pins the lock set, under
		// the engine mutex, just before it emits this event.
		t.open[e.Txn] = &txnRec{register: now, waitFrom: -1, misses: t.pendingMiss}
		t.pendingMiss = nil
		return
	}
	if e.Kind == core.EventRollback {
		t.sums.rollbacks++
		t.sums.depthSum += e.Lost
	}
	r := t.open[e.Txn]
	if r == nil {
		return
	}
	switch e.Kind {
	case core.EventWait:
		if r.waitFrom < 0 {
			r.waitFrom = now
		}
	case core.EventGrant, core.EventRollback, core.EventCommit:
		// A grant ends a wait; so does the rollback of a waiting victim.
		if r.waitFrom >= 0 {
			r.waits = append(r.waits, ival{r.waitFrom, now})
			r.waitFrom = -1
		}
		if e.Kind == core.EventCommit {
			r.commit = now
		}
	case core.EventAbort:
		delete(t.open, e.Txn)
	}
}

func (t *tracer) onMiss(ns int64) {
	now := t.now()
	t.mu.Lock()
	t.pendingMiss = append(t.pendingMiss, ival{now - ns, now})
	t.sums.missNS += ns
	t.sums.misses++
	t.mu.Unlock()
}

func (t *tracer) onFlush(fi durable.FlushInfo) {
	now := t.now()
	t.mu.Lock()
	t.flushes = append(t.flushes, ival{now - int64(fi.SyncDuration), now})
	t.sums.fsyncNS += int64(fi.SyncDuration)
	t.sums.fsyncs++
	t.mu.Unlock()
}

func (t *tracer) onQuiesce(start, end int64) {
	t.mu.Lock()
	t.quiesces = append(t.quiesces, ival{start, end})
	t.mu.Unlock()
}

func (t *tracer) onLockWait(ns int64) { t.mutexWaitNS.Add(ns) }

// take removes and returns the record of a finished transaction.
func (t *tracer) take(id txn.ID) *txnRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.open[id]
	delete(t.open, id)
	return r
}

// servedTxn is one committed transaction as the client saw it.
type servedTxn struct {
	id     int64
	c0, c1 int64 // client send .. committed reply, tracer time
	rec    *txnRec
}

// servedSpans appends the span tree of one served transaction:
//
//	client.run           send .. reply returned
//	  server.admit       send .. EventRegister (frame, decode, validate, register)
//	    page.miss        buffer-pool misses while Register pins the lock set
//	  core.execute       EventRegister .. EventCommit
//	    core.lock_wait   EventWait .. EventGrant (or the rollback ending the wait)
//	  server.reply       EventCommit .. reply returned
//	    durable.wait     EventCommit .. end of the fsync that covers it
//	  checkpoint.stall   under whichever of the above it interrupts: the
//	                     checkpoint snapshot holding the engine quiesced
//
// flushes and quiesces must be sorted by start.
func servedSpans(dst []span, tx servedTxn, flushes, quiesces []ival) []span {
	r := tx.rec
	c0, c1 := tx.c0, tx.c1
	reg := min(max(r.register, c0), c1)
	com := min(max(r.commit, reg), c1)
	root := len(dst)
	dst = append(dst, span{name: "client.run", start: c0, end: c1, parent: -1, txn: tx.id})
	phase := func(name string, w ival, kids string, kidIvs []ival) {
		p := len(dst)
		dst = append(dst, span{name: name, start: w.start, end: w.end, parent: root, txn: tx.id})
		var taken []ival
		for _, k := range kidIvs {
			k.start, k.end = max(k.start, w.start), min(k.end, w.end)
			if k.end > k.start {
				dst = append(dst, span{name: kids, start: k.start, end: k.end, parent: p, txn: tx.id})
				taken = append(taken, k)
			}
		}
		for _, q := range quiesces {
			if q.start >= w.end {
				break
			}
			q.start, q.end = max(q.start, w.start), min(q.end, w.end)
			if q.end <= q.start {
				continue
			}
			for _, piece := range minus(q, taken) {
				dst = append(dst, span{name: "checkpoint.stall", start: piece.start, end: piece.end, parent: p, txn: tx.id})
			}
		}
	}
	phase("server.admit", ival{c0, reg}, "page.miss", r.misses)
	phase("core.execute", ival{reg, com}, "core.lock_wait", r.waits)
	var dw []ival
	if i := sort.Search(len(flushes), func(i int) bool { return flushes[i].start >= r.commit }); i < len(flushes) {
		dw = []ival{{com, flushes[i].end}}
	}
	phase("server.reply", ival{com, c1}, "durable.wait", dw)
	return dst
}

// ledger accumulates self time per layer over many span trees.
type ledger struct {
	self  map[string]int64
	total int64 // summed root durations
	roots int64
}

func newLedger() *ledger { return &ledger{self: map[string]int64{}} }

func (l *ledger) add(spans []span) {
	for i, st := range selfTimes(spans) {
		l.self[spans[i].layer()] += st
		if spans[i].parent < 0 {
			l.total += spans[i].end - spans[i].start
			l.roots++
		}
	}
}

// move shifts up to ns of self time from one layer to another and
// returns how much moved.
func (l *ledger) move(from, to string, ns int64) int64 {
	ns = max(min(ns, l.self[from]), 0)
	l.self[from] -= ns
	l.self[to] += ns
	return ns
}

// writeSpans writes spans as tab-separated lines: name, start ns, end
// ns, parent index, txn.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# name\tstart_ns\tend_ns\tparent\ttxn")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.txn)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
