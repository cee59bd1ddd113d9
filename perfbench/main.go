// Command perfbench is the repository's benchmark: it serves the
// partial-rollback engine in-process over loopback TCP, exactly as
// cmd/prserver builds it, and drives it closed-loop with client.Mux
// streams spread over two sockets.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hotspot-interleaved --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer ledger: an untraced window and a traced
// window of half of --seconds each (their goodput ratio is the tracing
// overhead), a replay of the sent programs through the wire codec,
// validation and a timed engine, and a sample of the spans, written to
// <out>/trace/<workload>-seed<seed>.tsv. Every run checks the store,
// the engine and (durable-outofcore) recovery, and fails when the
// workload did not exercise what it is for. The last line of standard
// output is the JSON report; human-readable lines precede it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets an instance up at least minSetups times, and up to
// maxSetups times while the set-ups so far took under setupBudget;
// setup_s is their median and the last instance serves the load.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 2 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the WAL, heap files and traces")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	fmt.Printf("workload %s: %s\n", w.name, w.describe())
	fmt.Printf("why: %s\n", w.why)
	fmt.Printf("seed %d, %d s, closed loop, machine_cpus %d, GOMAXPROCS %d\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	b := newBench(w, *seed, filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid())), time.Duration(*seconds)*time.Second)
	defer os.RemoveAll(b.dir)
	var rep *report
	if *trace == 0 {
		rep, err = b.endToEnd()
	} else {
		rep, err = b.traced(filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.tsv", w.name, *seed)))
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("output or exercise checks failed")
	}
	return nil
}

type bench struct {
	w      *workload
	nm     *names
	seed   int64
	gens   []*source
	dir    string
	dur    time.Duration
	nsetup int
}

// newBench prepares the runs of w with inputs from seed; instances
// live under dir and windows last dur.
func newBench(w *workload, seed int64, dir string, dur time.Duration) *bench {
	return &bench{w: w, nm: newNames(w.entities), seed: seed, gens: w.generators(seed), dir: dir, dur: dur}
}

// instance sets up a fresh instance in its own directory.
func (b *bench) instance(tr *tracer) (*instance, time.Duration, error) {
	b.nsetup++
	return setup(b.w, b.nm, filepath.Join(b.dir, fmt.Sprint(b.nsetup)), tr)
}

// measure warms an instance up, runs one timed window on it, checks its
// outputs and closes it. The warm-up lets lazily grown state (stream
// workers, goroutine stacks, the buffer pool) settle before timing.
func (b *bench) measure(inst *instance, dur time.Duration) (*window, bool) {
	warm := drive(inst, b.gens, b.nm, min(dur/10, time.Second))
	win := drive(inst, b.gens, b.nm, dur)
	ok := true
	if err := b.w.exercise(win); err != nil {
		fmt.Println("exercise check FAILED:", err)
		ok = false
	}
	msg, err := inst.verify(warm.committed + win.committed)
	if err != nil {
		fmt.Println("output check FAILED:", err)
		ok = false
	} else {
		fmt.Println("output check:", msg)
	}
	if win.firstErr != nil {
		fmt.Println("first failed transaction:", win.firstErr)
	}
	fmt.Printf("window %v: attempted %d, committed %d (%d inside the window), failed %d\n",
		win.dur, win.attempted, win.committed, win.inWindow, win.failed)
	p50, err50 := win.lat.percentile(0.50)
	p99, err99 := win.lat.percentile(0.99)
	if err50 == nil && err99 == nil {
		fmt.Printf("whole window: goodput %.1f txn/s, latency p50 %.3f ms, p99 %.3f ms over %d samples\n",
			win.goodput(), ms(p50), ms(p99), win.lat.count())
	}
	fmt.Printf("conflicts: waits %d, deadlocks %d, partial rollbacks %d, total rollbacks %d, ops lost %d, checkpoints %d\n",
		win.delta("waits"), win.delta("deadlocks"), win.delta("rollbacks_partial"),
		win.delta("rollbacks_total"), win.delta("ops_lost"), win.after.ckpt.count-win.before.ckpt.count)
	return win, ok
}

// endToEnd is the untraced run.
func (b *bench) endToEnd() (*report, error) {
	var setups []float64
	var inst *instance
	for spent := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget); {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if inst, d, err = b.instance(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	setupS := median(setups)
	fmt.Printf("setup: median %.6f s of %d\n", setupS, len(setups))
	win, ok := b.measure(inst, b.dur)
	vals, err := endToEndValues(win, setupS)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: ok, Attempted: win.attempted, Failed: win.failed}
	return rep, rep.fill(endToEnd, vals)
}

// traced is the per-layer run: an untraced window for comparison, then
// a traced window on a fresh instance, each half of the run's time,
// then the replay.
func (b *bench) traced(spanPath string) (*report, error) {
	inst, _, err := b.instance(nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, ok1 := b.measure(inst, b.dur/2)

	tr := newTracer()
	if inst, _, err = b.instance(tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	win, ok2 := b.measure(inst, b.dur/2)
	if win.committed == 0 || plain.committed == 0 {
		return nil, fmt.Errorf("no transaction committed (first error: %v)", win.firstErr)
	}

	sent := b.w.regenerate(b.seed, win.from, win.to)
	rc, replaySpans, replayLed, err := replay(b.w, sent, b.nm, tr)
	if err != nil {
		return nil, err
	}
	led, spans := servedLedger(win, tr, rc)
	fmt.Printf("traced %d single-attempt transactions, sampled %d; replayed %d of %d programs (replay self time: ",
		win.traced, led.roots, rc.n, len(sent))
	for _, l := range []string{"wire", "txn", "core"} {
		fmt.Printf("%s %.2f us ", l, ratio(float64(replayLed.self[l]), float64(replayLed.roots))/1e3)
	}
	fmt.Println(")")
	if err := writeSpans(spanPath, appendTree(spans, replaySpans)); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", spanPath)
	for _, l := range selfLayers {
		fmt.Printf("self %-10s %9.2f us  %5.1f%%\n", l,
			ratio(float64(led.self[l]), float64(led.roots))/1e3, 100*ratio(float64(led.self[l]), float64(led.total)))
	}
	rep := &report{Correct: ok1 && ok2, Attempted: plain.attempted + win.attempted, Failed: plain.failed + win.failed}
	return rep, rep.fill(perLayer, layerValues(win, rc, led, plain))
}
