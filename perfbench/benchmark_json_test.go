package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root declares what this command
// reports; the two must not drift apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, defined %q", i, w, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, defined %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, b string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (b != "higher" && b != "lower") || seen[n] {
			t.Errorf("bad metric %q %q %q", n, u, b)
		}
		seen[n] = true
	}
	var maxBound float64
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: declared %v, defined %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		check(m.Name, m.Unit, m.Better)
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: declared %v, defined %v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be seconds, lower, with the largest bound: %v", m)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
