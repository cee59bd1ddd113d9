package main

import (
	"reflect"
	"testing"
)

// regenerate recovers exactly the specs each stream drew inside a
// window, one stream at a time in turn, from the seed and the draw
// counts alone.
func TestRegenerateRecoversTheSentSpecs(t *testing.T) {
	for _, w := range workloads {
		gens := w.generators(5)
		from := make([]int64, w.streams)
		to := make([]int64, w.streams)
		sent := make([][]spec, w.streams)
		for s, src := range gens {
			for i := 0; i < s; i++ { // drawn before the window
				w.next(src)
			}
			from[s] = src.drawn
			for i := 0; i < 1+3*s%7; i++ {
				sent[s] = append(sent[s], w.next(src))
			}
			to[s] = src.drawn
		}
		var want []spec
		for round := 0; ; round++ {
			n := len(want)
			for s := range sent {
				if round < len(sent[s]) {
					want = append(want, sent[s][round])
				}
			}
			if len(want) == n {
				break
			}
		}
		if got := w.regenerate(5, from, to); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: regenerated %d specs, want %d sent", w.name, len(got), len(want))
		}
	}
}
