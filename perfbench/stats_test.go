package main

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// rampHist holds the samples 1..n ms.
func rampHist(n int) *hist {
	h := new(hist)
	for i := 1; i <= n; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	return h
}

// within reports whether got lies in want's bucket.
func within(got, want time.Duration) bool {
	return bucketOf(got) == bucketOf(want)
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{100, 0.50, 50 * time.Millisecond},
		{101, 0.50, 51 * time.Millisecond},
		{1000, 0.99, 990 * time.Millisecond},
		{2000, 0.99, 1980 * time.Millisecond},
	} {
		got, err := rampHist(c.n).percentile(c.q)
		if err != nil || !within(got, c.want) {
			t.Errorf("p%g of 1..%d ms = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples leave exactly 10 beyond the p99; 999 leave 9.
	if _, err := rampHist(1000).percentile(0.99); err != nil {
		t.Errorf("1000 samples: %v", err)
	}
	if _, err := rampHist(999).percentile(0.99); err == nil {
		t.Error("999 samples: p99 reported with 9 samples beyond it")
	}
	if _, err := rampHist(20).percentile(0.50); err != nil {
		t.Errorf("p50 of 20: %v", err)
	}
	if _, err := new(hist).percentile(0.50); err == nil {
		t.Error("no samples: percentile reported")
	}
}

// A percentile read from the histogram is within 1/64 of the exact
// nearest-rank sample.
func TestHistPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := new(hist)
	xs := make([]time.Duration, 20000)
	for i := range xs {
		xs[i] = time.Duration(rng.ExpFloat64() * float64(3*time.Millisecond))
		h.add(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, err := h.percentile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := xs[int(q*float64(len(xs))+0.5)-1]
		if d := float64(got-want) / float64(want); d > 1.0/histSub || d < -1.0/histSub {
			t.Errorf("p%g = %v, exact %v (off by %.4f)", q*100, got, want, d)
		}
	}
	for _, d := range []time.Duration{0, 63, 64, 127, 128, time.Millisecond, time.Hour} {
		b := bucketOf(d)
		lo, width := bucketRange(b)
		if b < 0 || b >= histBuckets || (d < time.Minute && (uint64(d) < lo || uint64(d) >= lo+width)) {
			t.Errorf("%v in bucket %d holding [%d, %d)", d, b, lo, lo+width)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
