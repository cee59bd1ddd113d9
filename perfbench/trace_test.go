package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimesHandBuiltTree(t *testing.T) {
	spans := []span{
		{name: "client.run", start: 0, end: 100, parent: -1},
		{name: "server.admit", start: 10, end: 40, parent: 0},
		{name: "page.miss", start: 20, end: 30, parent: 1},
		{name: "core.execute", start: 30, end: 60, parent: 0},  // overlaps admit by 10
		{name: "server.reply", start: 90, end: 120, parent: 0}, // runs past its parent
	}
	// root: 100 minus the union [10,60] and [90,100]; overlapping and
	// out-of-range child time counts once and only inside the parent.
	want := []int64{40, 20, 10, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestMinus(t *testing.T) {
	got := minus(ival{0, 100}, []ival{{10, 20}, {50, 120}, {-5, 2}})
	want := []ival{{2, 10}, {20, 50}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("minus = %v, want %v", got, want)
	}
}

// A served transaction's layers partition its time: every nanosecond of
// the client span is some layer's self time exactly once, even where a
// checkpoint stall overlaps a lock wait.
func TestServedSpansPartitionTheTransaction(t *testing.T) {
	tx := servedTxn{id: 7, c0: 0, c1: 1000, rec: &txnRec{
		register: 100, commit: 600,
		misses: []ival{{40, 60}},
		waits:  []ival{{200, 400}},
	}}
	flushes := []ival{{550, 580}, {650, 700}} // the first starts before the commit
	quiesces := []ival{{300, 500}}
	spans := servedSpans(nil, tx, flushes, quiesces)
	led := newLedger()
	led.add(spans)
	want := map[string]int64{
		"client":     0,
		"server":     80 + 300, // admit less the miss; reply less the durable wait
		"page":       20,
		"core":       200 + 200, // execute less wait and stall; the wait
		"checkpoint": 100,       // the stall outside the wait
		"durable":    100,       // commit at 600 .. end of the fsync starting at 650
	}
	if !reflect.DeepEqual(led.self, want) {
		t.Errorf("self = %v, want %v", led.self, want)
	}
	if led.total != 1000 || led.roots != 1 {
		t.Errorf("total %d over %d roots, want 1000 over 1", led.total, led.roots)
	}
	for _, s := range spans {
		if s.txn != 7 {
			t.Errorf("span %s has txn %d", s.name, s.txn)
		}
	}
	if moved := led.move("server", "wire", 1000); moved != 380 || led.self["server"] != 0 || led.self["wire"] != 380 {
		t.Errorf("move took %d, left %v", moved, led.self)
	}
}

// A short traced run fills every per-layer metric, and its layers
// partition the served transactions' time.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, w := range []*workload{workloads[0], smallDurable()} {
		dir := t.TempDir()
		b := newBench(w, 3, filepath.Join(dir, "run"), 600*time.Millisecond)
		rep, err := b.traced(filepath.Join(dir, "trace", "spans.tsv"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d failed, %d of %d metrics", w.name, rep.Failed, len(rep.Metrics), len(perLayer))
		}
		var shares float64
		for _, l := range selfLayers {
			shares += rep.Metrics["self."+l+"_share"].Value
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("%s: layer shares sum to %v", w.name, shares)
		}
		if d := rep.Metrics["self.durable_share"].Value; (d > 0) != w.durable {
			t.Errorf("%s: durable share %v", w.name, d)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace", "spans.tsv")); err != nil {
			t.Error(err)
		}
	}
}
