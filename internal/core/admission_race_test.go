package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// transferChecked moves one unit from entity a to entity b, locking a
// first: opposite orders deadlock, so partial rollback runs too.
func transferChecked(a, b string) txn.Checked {
	return mustCheck(txn.NewProgram("xfer").Local("x", 0).Local("y", 0).
		LockX(a).Read(a, "x").
		LockX(b).Read(b, "y").
		Write(a, value.Sub(value.L("x"), value.C(1))).
		Write(b, value.Add(value.L("y"), value.C(1))))
}

// bumpChecked increments entity e.
func bumpChecked(e string) txn.Checked {
	return mustCheck(txn.NewProgram("bump").Local("v", 0).
		LockX(e).Read(e, "v").Write(e, value.Add(value.L("v"), value.C(1))))
}

// mustCheck builds a fixed, valid program; a failure is a bug in the
// test, so it panics rather than calling t.Fatal off the test
// goroutine.
func mustCheck(b *txn.Builder) txn.Checked {
	c, err := b.BuildChecked()
	if err != nil {
		panic(err)
	}
	return c
}

// TestConcurrentAdmission races registration, which prepares a
// transaction's state outside the engine lock, against everything else
// that touches the same state: other registrations (one txn.Checked
// shared by every worker among them), stepping and deadlock rollback,
// Retire, rejected registrations of names no one defined, and Define
// growing the store and its interner. Run it under -race with
// GOMAXPROCS > 1. Rejections must leave the interner alone and consume
// no transaction ID, so the accepted IDs are exactly 1..N.
func TestConcurrentAdmission(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			const hot, fresh, workers, rounds = 8, 32, 8, 40
			store := entity.NewUniformStore("e", hot, 100)
			notif := exec.NewNotifier()
			sys := core.New(core.Config{Store: store, Strategy: core.MCS, Stripes: stripes, OnEvent: notif.OnEvent})
			base := store.Interner().Len()
			shared := transferChecked("e0", "e1")

			var defined atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < fresh; k++ {
					store.Define(fmt.Sprintf("d%d", k), 0)
					defined.Add(1)
				}
			}()

			var mu sync.Mutex
			var ids []int
			var bumps atomic.Int64
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					var locals []int64
					for i := 0; i < rounds; i++ {
						var c txn.Checked
						wantOK, bump := true, false
						switch i % 4 {
						case 0:
							c = shared
						case 1:
							a, b := rng.Intn(hot), rng.Intn(hot-1)
							if b >= a {
								b++
							}
							c = transferChecked(fmt.Sprintf("e%d", a), fmt.Sprintf("e%d", b))
						case 2:
							if n := defined.Load(); n > 0 {
								c, bump = bumpChecked(fmt.Sprintf("d%d", rng.Int63n(n))), true
							} else {
								c = shared
							}
						case 3:
							c, wantOK = transferChecked("e0", fmt.Sprintf("ghost%d-%d", w, i)), false
						}
						id, err := sys.RegisterChecked(c)
						if (err == nil) != wantOK {
							errs <- fmt.Errorf("worker %d round %d: register err = %v, want ok=%v", w, i, err, wantOK)
							return
						}
						if err != nil {
							continue
						}
						err = exec.StepToCommit(context.Background(), sys, id, notif.Register(id), 0)
						notif.Unregister(id)
						if err != nil {
							errs <- fmt.Errorf("worker %d: %v: %w", w, id, err)
							return
						}
						if _, locals, err = sys.Retire(id, locals[:0]); err != nil {
							errs <- err
							return
						}
						if bump {
							bumps.Add(1)
						}
						mu.Lock()
						ids = append(ids, int(id))
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if got, want := store.Interner().Len(), base+fresh; got != want {
				t.Fatalf("interner has %d names, want %d: a rejected registration interned a name", got, want)
			}
			sort.Ints(ids)
			for i, id := range ids {
				if id != i+1 {
					t.Fatalf("accepted IDs %v...: gap at position %d (a rejection consumed an ID)", ids[:i+1], i)
				}
			}
			if got := len(sys.IDs()); got != 0 {
				t.Fatalf("%d transactions still registered after Retire", got)
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var hotSum, freshSum int64
			for k := 0; k < hot; k++ {
				hotSum += store.MustGet(fmt.Sprintf("e%d", k))
			}
			for k := 0; k < fresh; k++ {
				freshSum += store.MustGet(fmt.Sprintf("d%d", k))
			}
			if hotSum != hot*100 {
				t.Fatalf("transfers did not conserve the sum: %d, want %d", hotSum, hot*100)
			}
			if freshSum != bumps.Load() {
				t.Fatalf("fresh entities sum to %d, want %d committed bumps", freshSum, bumps.Load())
			}
		})
	}
}
