package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// minTail is the sample-count rule for reported percentiles: a
// percentile is reported only when at least this many samples lie
// beyond it, so a p99 needs 1000 samples and one slow outlier cannot
// stand in for the tail.
const minTail = 10

// hist is a log-linear latency histogram: exact below histSub ns, then
// histSub buckets per power of two, so a percentile read from it is
// within 1/histSub of the sample it stands for. It is allocated
// before a window starts and safe for concurrent add, so recording
// latencies neither grows the heap nor shifts the garbage collector's
// pace while the window runs.
type hist struct {
	counts [histBuckets]atomic.Uint32
}

const (
	histSub     = 64
	histMaxBits = 40 // samples clamp just below 2^40 ns (18 minutes)
	histBuckets = (histMaxBits - 5) * histSub
)

func bucketOf(d time.Duration) int {
	v := min(uint64(max(d, 0)), 1<<histMaxBits-1)
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 7 // v>>shift is in [histSub, 2·histSub)
	return (shift+1)*histSub + int(v>>shift) - histSub
}

// bucketRange returns the lowest value bucket i holds and its width.
func bucketRange(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	shift := i/histSub - 1
	return uint64(i%histSub+histSub) << shift, 1 << shift
}

func (h *hist) add(d time.Duration) { h.counts[bucketOf(d)].Add(1) }

func (h *hist) count() int64 {
	var n int64
	for i := range h.counts {
		n += int64(h.counts[i].Load())
	}
	return n
}

// percentile returns the q-quantile (0 < q < 1) by the nearest-rank
// method. It fails when fewer than minTail samples lie above the
// returned rank.
func (h *hist) percentile(q float64) (time.Duration, error) {
	n := h.count()
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	// ceil(q·n) - 1, 0-based; the epsilon absorbs q·n landing just
	// above an integer in floating point (0.99·1000).
	rank := min(max(int64(math.Ceil(q*float64(n)-1e-9))-1, 0), n-1)
	if beyond := n - 1 - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g: %d samples leave %d beyond it, want at least %d", q*100, n, beyond, minTail)
	}
	// The rank's sample is placed within its bucket by its position
	// among the bucket's samples.
	var cum int64
	for i := range h.counts {
		c := int64(h.counts[i].Load())
		if cum+c > rank {
			lo, width := bucketRange(i)
			return time.Duration(lo + uint64(float64(width)*(float64(rank-cum)+0.5)/float64(c))), nil
		}
		cum += c
	}
	panic("unreachable: rank below the count")
}

// median returns the middle value of xs (the mean of the middle two
// for even lengths). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a rate over no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
