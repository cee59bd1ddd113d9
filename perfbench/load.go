package main

import (
	"context"
	"math/rand"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/txn"
)

// snapshot is the process- and server-wide state read at each edge of
// a timed window; metrics are differences of two snapshots.
type snapshot struct {
	at       time.Time
	cpu      time.Duration // process user + system time
	counters map[string]int64
	walBytes int64
	walComm  int64
	fsyncs   int64
	hits     int64
	misses   int64
	evicts   int64
	flushes  int64
	ckpt     ckptTotals
	tr       tracerSums // zero when untraced
	rt       [len(rtNames)]float64
}

var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const (
	rtAllocBytes = iota
	rtAllocObjects
	rtGCCycles
	rtGCCPU
	rtTotalCPU
)

// ckptTotals accumulates completed checkpoints (the hook is cheap and
// stays on in untimed and untraced runs alike).
type ckptTotals struct {
	count     int64
	bytes     int64
	duration  time.Duration
	quiescing time.Duration
}

type ckptCounter struct {
	mu sync.Mutex
	t  ckptTotals
}

func (c *ckptCounter) onCheckpoint(ci checkpoint.Info) {
	c.mu.Lock()
	c.t.count++
	c.t.bytes += ci.Bytes
	c.t.duration += ci.Duration
	c.t.quiescing += ci.QuiesceDuration
	c.mu.Unlock()
}

func (c *ckptCounter) totals() ckptTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (inst *instance) snap() snapshot {
	s := snapshot{at: time.Now(), cpu: processCPU(), counters: inst.counters(), ckpt: inst.ckpt.totals()}
	if inst.wal != nil {
		ws := inst.wal.Stats()
		s.walBytes, s.walComm, s.fsyncs = ws.Bytes, ws.Commits, ws.Fsyncs
	}
	if inst.tr != nil {
		s.tr = inst.tr.totals()
	}
	if inst.store.Paged() {
		ps := inst.store.PoolStats()
		s.hits, s.misses, s.evicts, s.flushes = ps.Hits, ps.Misses, ps.Evictions, ps.Flushes
	}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for i, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = sm.Value.Float64()
		}
	}
	return s
}

// sliceLen is the length of the slices a window is cut into. Timed
// end-to-end metrics are medians over slices, so a stall of the
// machine in one slice does not move a run's result.
const sliceLen = 2 * time.Second

// slice is what committed inside one sliceLen of a window.
type slice struct {
	lat hist
	cpu time.Duration // process CPU time spent in the slice
}

// servedSample bounds how many served transactions a traced window
// keeps for the ledger: a uniform sample of each stream's
// single-attempt commits, in buffers allocated before the window, so
// that the traced window's live heap differs from the untraced one's
// only by what the hooks themselves hold.
const servedSample = 8192

// tally is what one stream, or all of a window's streams, did.
type tally struct {
	attempted, failed  int64
	committed          int64
	inWindow           int64 // commits whose reply arrived before the deadline
	attempts           int64 // summed client attempts of committed txns
	opsExec, opsUseful int64
	traced             int64       // single-attempt commits with an engine record
	served             []servedTxn // a sample of the traced ones
	firstErr           error
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.committed += o.committed
	t.inWindow += o.inWindow
	t.attempts += o.attempts
	t.opsExec += o.opsExec
	t.opsUseful += o.opsUseful
	t.traced += o.traced
	t.served = append(t.served, o.served...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// window is one closed-loop run of every stream against an instance.
type window struct {
	tally
	dur           time.Duration
	lat           hist // every commit
	slices        []slice
	before, after snapshot
	// Stream s sent its programs from[s] up to to[s] in this window.
	from, to []int64
}

// drive runs every stream in a closed loop for dur: each stream sends
// its next program only once the previous one has committed (or failed
// for good). Streams are spread over the instance's sockets; stream s
// draws its programs from gens[s].
func drive(inst *instance, gens []*source, nm *names, dur time.Duration) *window {
	w := inst.w
	nslices := int(dur / sliceLen)
	res := &window{dur: dur, slices: make([]slice, nslices),
		from: make([]int64, w.streams), to: make([]int64, w.streams)}
	per := make([]tally, w.streams)
	for s := range per {
		res.from[s] = gens[s].drawn
		if inst.tr != nil {
			per[s].served = make([]servedTxn, 0, servedSample/w.streams)
		}
	}
	cpuAt := make([]time.Duration, nslices+1)
	var wg sync.WaitGroup
	res.before = inst.snap()
	start := res.before.at
	deadline := start.Add(dur)
	cpuAt[0] = res.before.cpu
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= nslices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * sliceLen)))
			cpuAt[i] = processCPU()
		}
	}()
	for s := 0; s < w.streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &per[s]
			m := inst.muxes[s%len(inst.muxes)]
			var pick *rand.Rand // chooses the served sample
			if inst.tr != nil {
				pick = rand.New(rand.NewSource(int64(s)))
			}
			for time.Now().Before(deadline) {
				sp := w.next(gens[s])
				prog := w.program(&sp, nm)
				r.attempted++
				t0 := time.Now()
				out, err := m.Run(context.Background(), prog)
				t1 := time.Now()
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.committed++
				if !t1.After(deadline) {
					r.inWindow++
				}
				res.lat.add(t1.Sub(t0))
				if k := int(t1.Sub(start) / sliceLen); k < nslices {
					res.slices[k].lat.add(t1.Sub(t0))
				}
				r.attempts += int64(out.Attempts)
				r.opsExec += out.Outcome.OpsExecuted
				r.opsUseful += out.Outcome.OpsExecuted - out.Outcome.OpsLost
				if tr := inst.tr; tr != nil {
					// Only single-attempt transactions have a send time
					// that matches their engine record.
					if rec := tr.take(txn.ID(out.Txn)); rec != nil && out.Attempts == 1 {
						tx := servedTxn{id: out.Txn, c0: int64(t0.Sub(tr.base)), c1: int64(t1.Sub(tr.base)), rec: rec}
						// Reservoir sampling: every traced commit of the
						// stream is equally likely to be kept.
						if len(r.served) < cap(r.served) {
							r.served = append(r.served, tx)
						} else if j := pick.Int63n(r.traced + 1); j < int64(len(r.served)) {
							r.served[j] = tx
						}
						r.traced++
					}
				}
			}
		}(s)
	}
	wg.Wait()
	res.after = inst.snap()
	for i := range res.slices {
		res.slices[i].cpu = cpuAt[i+1] - cpuAt[i]
	}
	for s := range per {
		res.to[s] = gens[s].drawn
		res.tally.add(&per[s])
	}
	return res
}

func (win *window) delta(name string) int64 {
	return win.after.counters[name] - win.before.counters[name]
}

func (win *window) goodput() float64 { return float64(win.inWindow) / win.dur.Seconds() }
