package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the server sees, reported by an
// untraced run.
var endToEnd = []metricDef{
	{"goodput_txn_s", "txn/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.2},
	{"cpu_ms_per_txn", "ms", "lower", 0.25},
}

// selfLayers are the layers whose self time the traced run splits each
// served transaction into.
var selfLayers = []string{"server", "wire", "txn", "core", "page", "durable", "checkpoint"}

// perLayer are the traced run's metrics. The comment above each group
// names the end-to-end metric it should move and on which workload.
var perLayer = append([]metricDef{
	// failed_frac, latency_p99_ms on hotspot-interleaved.
	{"client.attempts_per_commit", "1/txn", "lower", 0},
	{"client.failed_frac", "ratio", "lower", 0},
	{"client.latency_samples", "count", "higher", 0},
	// cpu_ms_per_txn, latency_p50_ms on uniform-readmostly.
	{"wire.bytes_in_per_txn", "B", "lower", 0},
	{"wire.bytes_out_per_txn", "B", "lower", 0},
	{"wire.frames_per_flush", "1/flush", "higher", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.encode_us", "us", "lower", 0},
	// cpu_ms_per_txn, goodput_txn_s on uniform-readmostly.
	{"txn.validate_us", "us", "lower", 0},
	{"txn.program_repeat_share", "ratio", "higher", 0},
	// latency_p50_ms on uniform-readmostly.
	{"server.admit_us", "us", "lower", 0},
	{"server.reply_us", "us", "lower", 0},
	{"server.busy_rejected_per_ktxn", "1/ktxn", "lower", 0},
	// goodput_txn_s (register: uniform-readmostly; the rest:
	// hotspot-interleaved) and latency_p99_ms on hotspot-interleaved;
	// predicted flat on the other two.
	{"core.register_us", "us", "lower", 0},
	{"core.step_us_per_op", "us", "lower", 0},
	{"core.execute_us", "us", "lower", 0},
	{"core.lock_wait_us_per_txn", "us", "lower", 0},
	{"core.engine_mutex_wait_us_per_txn", "us", "lower", 0},
	{"core.waits_per_txn", "1/txn", "lower", 0},
	{"core.deadlocks_per_ktxn", "1/ktxn", "lower", 0},
	{"core.partial_rollbacks_per_ktxn", "1/ktxn", "lower", 0},
	{"core.total_rollbacks_per_ktxn", "1/ktxn", "lower", 0},
	{"core.partial_share", "ratio", "higher", 0},
	{"core.ops_lost_per_commit", "1/txn", "lower", 0},
	{"core.rollback_depth_mean", "states", "lower", 0},
	{"core.useful_op_ratio", "ratio", "higher", 0},
	{"core.steps_per_commit", "1/txn", "lower", 0},
	// latency_p99_ms, goodput_txn_s on durable-outofcore.
	{"page.hit_rate", "ratio", "higher", 0},
	{"page.misses_per_txn", "1/txn", "lower", 0},
	{"page.evictions_per_txn", "1/txn", "lower", 0},
	{"page.miss_us", "us", "lower", 0},
	// What the server writes to disk per commit: WAL, heap-page flushes
	// and checkpoints; zero on the two memory workloads. latency_p50_ms,
	// goodput_txn_s on durable-outofcore.
	{"write_bytes_per_txn", "B", "lower", 0},
	// latency_p50_ms on durable-outofcore.
	{"durable.commits_per_fsync", "1/fsync", "higher", 0},
	{"durable.fsync_ms", "ms", "lower", 0},
	{"durable.log_bytes_per_txn", "B", "lower", 0},
	// latency_p99_ms on durable-outofcore.
	{"checkpoint.count", "count", "lower", 0},
	{"checkpoint.duration_ms", "ms", "lower", 0},
	{"checkpoint.quiesce_ms", "ms", "lower", 0},
	{"checkpoint.bytes_per_txn", "B", "lower", 0},
	// cpu_ms_per_txn, goodput_txn_s on uniform-readmostly.
	{"runtime.alloc_bytes_per_txn", "B", "lower", 0},
	{"runtime.mallocs_per_txn", "1/txn", "lower", 0},
	{"runtime.gc_cycles_per_ktxn", "1/ktxn", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	// The tracing overhead: traced against untraced goodput.
	{"trace.untraced_goodput_txn_s", "txn/s", "higher", 0},
	{"trace.traced_goodput_txn_s", "txn/s", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}, selfMetrics()...)

// selfMetrics are each layer's mean self time per served transaction
// and its share of the transaction's client-observed time.
func selfMetrics() []metricDef {
	var out []metricDef
	for _, l := range selfLayers {
		out = append(out,
			metricDef{name: "self." + l + "_us", unit: "us", better: "lower"},
			metricDef{name: "self." + l + "_share", unit: "ratio", better: "lower"})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets report metrics from vals, failing if any defined metric is
// missing or any value is not a metric of defs.
func (r *report) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(vals), len(defs))
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set from /proc.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// endToEndValues computes the untraced run's metrics from its window.
// Goodput, latency and CPU per transaction are medians over the
// window's slices; each slice's percentiles obey the sample-count rule.
func endToEndValues(win *window, setupS float64) (map[string]float64, error) {
	if win.committed == 0 {
		return nil, fmt.Errorf("no transaction committed (first error: %v)", win.firstErr)
	}
	if len(win.slices) == 0 {
		return nil, fmt.Errorf("window of %v is shorter than a %v slice", win.dur, sliceLen)
	}
	var good, p50s, p99s, cpus []float64
	for i := range win.slices {
		sl := &win.slices[i]
		n := float64(sl.lat.count())
		p50, err := sl.lat.percentile(0.50)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", i, err)
		}
		p99, err := sl.lat.percentile(0.99)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", i, err)
		}
		good = append(good, n/sliceLen.Seconds())
		p50s = append(p50s, ms(p50))
		p99s = append(p99s, ms(p99))
		cpus = append(cpus, ms(sl.cpu)/n)
	}
	fmt.Printf("goodput per %v slice: %.0f txn/s\n", sliceLen, good)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"goodput_txn_s":  median(good),
		"latency_p50_ms": median(p50s),
		"latency_p99_ms": median(p99s),
		"setup_s":        setupS,
		"peak_rss_mib":   rss,
		"cpu_ms_per_txn": median(cpus),
	}, nil
}

// writeBytes is what the server wrote to disk during the window: WAL,
// heap-flush and checkpoint bytes.
func (win *window) writeBytes() int64 {
	return (win.after.walBytes - win.before.walBytes) +
		(win.after.flushes-win.before.flushes)*pageSize + (win.after.ckpt.bytes - win.before.ckpt.bytes)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerValues computes the traced run's metrics from its window, the
// replay, the served ledger and the untraced comparison window.
func layerValues(win *window, rc replayCosts, led *ledger, untraced *window) map[string]float64 {
	n := float64(win.committed)
	d := func(name string) float64 { return float64(win.delta(name)) }
	us := func(ns float64) float64 { return ns / 1e3 }
	v := map[string]float64{
		"client.attempts_per_commit": ratio(float64(win.attempts), n),
		"client.failed_frac":         ratio(float64(win.failed), float64(win.attempted)),
		"client.latency_samples":     float64(win.lat.count()),

		"wire.bytes_in_per_txn":  ratio(d("bytes_in"), n),
		"wire.bytes_out_per_txn": ratio(d("bytes_out"), n),
		"wire.frames_per_flush":  ratio(d("frames_out"), d("writer_flushes")),
		"wire.decode_us":         us(rc.decodeNS),
		"wire.encode_us":         us(rc.encodeNS),

		"txn.validate_us":          us(rc.validateNS),
		"txn.program_repeat_share": rc.repeatShare,

		"server.busy_rejected_per_ktxn": ratio(1000*d("busy_rejected"), n),

		"core.register_us":                us(rc.registerNS),
		"core.step_us_per_op":             us(rc.stepNSPerOp),
		"core.waits_per_txn":              ratio(d("waits"), n),
		"core.deadlocks_per_ktxn":         ratio(1000*d("deadlocks"), n),
		"core.partial_rollbacks_per_ktxn": ratio(1000*d("rollbacks_partial"), n),
		"core.total_rollbacks_per_ktxn":   ratio(1000*d("rollbacks_total"), n),
		"core.partial_share":              ratio(d("rollbacks_partial"), d("rollbacks_partial")+d("rollbacks_total")),
		"core.ops_lost_per_commit":        ratio(d("ops_lost"), n),
		"core.useful_op_ratio":            ratio(float64(win.opsUseful), float64(win.opsExec)),
		"core.steps_per_commit":           ratio(d("steps"), n),

		"write_bytes_per_txn": ratio(float64(win.writeBytes()), n),

		"trace.untraced_goodput_txn_s": untraced.goodput(),
		"trace.traced_goodput_txn_s":   win.goodput(),
		"trace.overhead_frac":          1 - ratio(win.goodput(), untraced.goodput()),
	}

	a, b := win.before, win.after
	ta, tb := a.tr, b.tr
	v["core.engine_mutex_wait_us_per_txn"] = ratio(us(float64(tb.mutexWaitNS-ta.mutexWaitNS)), n)
	v["core.rollback_depth_mean"] = ratio(float64(tb.depthSum-ta.depthSum), float64(tb.rollbacks-ta.rollbacks))
	v["page.miss_us"] = ratio(us(float64(tb.missNS-ta.missNS)), float64(tb.misses-ta.misses))
	v["durable.fsync_ms"] = ratio(float64(tb.fsyncNS-ta.fsyncNS)/1e6, float64(tb.fsyncs-ta.fsyncs))
	v["page.hit_rate"] = ratio(float64(b.hits-a.hits), float64(b.hits-a.hits+b.misses-a.misses))
	v["page.misses_per_txn"] = ratio(float64(b.misses-a.misses), n)
	v["page.evictions_per_txn"] = ratio(float64(b.evicts-a.evicts), n)
	v["durable.commits_per_fsync"] = ratio(float64(b.walComm-a.walComm), float64(b.fsyncs-a.fsyncs))
	v["durable.log_bytes_per_txn"] = ratio(float64(b.walBytes-a.walBytes), n)
	ck := float64(b.ckpt.count - a.ckpt.count)
	v["checkpoint.count"] = ck
	v["checkpoint.duration_ms"] = ratio(ms(b.ckpt.duration-a.ckpt.duration), ck)
	v["checkpoint.quiesce_ms"] = ratio(ms(b.ckpt.quiescing-a.ckpt.quiescing), ck)
	v["checkpoint.bytes_per_txn"] = ratio(float64(b.ckpt.bytes-a.ckpt.bytes), n)
	v["runtime.alloc_bytes_per_txn"] = ratio(b.rt[rtAllocBytes]-a.rt[rtAllocBytes], n)
	v["runtime.mallocs_per_txn"] = ratio(b.rt[rtAllocObjects]-a.rt[rtAllocObjects], n)
	v["runtime.gc_cycles_per_ktxn"] = ratio(1000*(b.rt[rtGCCycles]-a.rt[rtGCCycles]), n)
	v["runtime.gc_cpu_fraction"] = ratio(b.rt[rtGCCPU]-a.rt[rtGCCPU], b.rt[rtTotalCPU]-a.rt[rtTotalCPU])

	// Served-path means over the sampled single-attempt transactions.
	var admit, execute, reply, wait float64
	for _, s := range win.served {
		r := s.rec
		admit += float64(r.register - s.c0)
		execute += float64(r.commit - r.register)
		reply += float64(s.c1 - r.commit)
		for _, w := range r.waits {
			wait += float64(w.end - w.start)
		}
	}
	k := float64(len(win.served))
	v["server.admit_us"] = ratio(us(admit), k)
	v["core.execute_us"] = ratio(us(execute), k)
	v["server.reply_us"] = ratio(us(reply), k)
	v["core.lock_wait_us_per_txn"] = ratio(us(wait), k)

	for _, l := range selfLayers {
		v["self."+l+"_us"] = ratio(us(float64(led.self[l])), float64(led.roots))
		v["self."+l+"_share"] = ratio(float64(led.self[l]), float64(led.total))
	}
	return v
}

// servedLedger builds the span tree of every sampled served
// transaction, returning the trees and the per-layer self time with the
// server-internal calls the replay measured moved out of the server
// layer: frame encode and decode to wire, program validation to txn,
// and registration less its own validation to core.
func servedLedger(win *window, tr *tracer, rc replayCosts) (*ledger, []span) {
	tr.mu.Lock()
	flushes := append([]ival(nil), tr.flushes...)
	quiesces := append([]ival(nil), tr.quiesces...)
	tr.mu.Unlock()
	sort.Slice(flushes, func(i, j int) bool { return flushes[i].start < flushes[j].start })
	sort.Slice(quiesces, func(i, j int) bool { return quiesces[i].start < quiesces[j].start })
	led := newLedger()
	var all, local []span
	for _, s := range win.served {
		local = servedSpans(local[:0], s, flushes, quiesces)
		led.add(local)
		all = appendTree(all, local)
	}
	k := float64(led.roots)
	led.move("server", "wire", int64(k*(rc.encodeNS+rc.decodeNS)))
	led.move("server", "txn", int64(k*(rc.programNS+rc.validateNS)))
	led.move("server", "core", int64(k*(rc.registerNS-rc.validateNS)))
	return led, all
}
