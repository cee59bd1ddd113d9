package server

import (
	"context"
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/wire"
)

// servedAdmissionAllocs bounds the allocations of one served
// transaction's trip through the engine: decode its tagged frame,
// validate it once, register, step to commit and forget. Measured at
// 225 when the program was validated while decoding and again at
// registration, and 172 with the single validation.
const servedAdmissionAllocs = 172

// transferFrame encodes a fixed 4-lock transfer as a tagged v3 frame:
// two exclusive and two shared locks, each read into a local and
// padded with a compute, then both exclusive entities rewritten.
func transferFrame(t *testing.T) []byte {
	t.Helper()
	b := txn.NewProgram("xfer").Local("acc", 0)
	for k, mode := range []string{"x", "s", "x", "s"} {
		e, v, pad := fmt.Sprintf("e%d", k), fmt.Sprintf("v%d", k), fmt.Sprintf("p%d", k)
		b.Local(v, 0).Local(pad, 0)
		if mode == "x" {
			b.LockX(e)
		} else {
			b.LockS(e)
		}
		b.Read(e, v).
			Compute(pad, value.Add(value.L(pad), value.C(1))).
			Compute("acc", value.Add(value.L("acc"), value.L(v)))
	}
	p := b.Write("e0", value.Sub(value.L("v0"), value.C(3))).
		Write("e2", value.Add(value.L("v2"), value.C(3))).
		MustBuild()
	bp, err := wire.ProgramFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendTagged(nil, 1, bp)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestServedAdmissionAllocs pins the served admission path's
// allocation count on the server's own engine, so a second validation
// or another per-transaction allocation shows up as a failure.
func TestServedAdmissionAllocs(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	sys := New(Config{Store: store, Strategy: core.MCS}).System()
	frame := transferFrame(t)
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		f, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := f.Msg.(wire.BeginProgram).Checked()
		if err != nil {
			t.Fatal(err)
		}
		id, err := sys.RegisterChecked(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.StepToCommit(ctx, sys, id, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.Forget(id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("served admission: %v allocs per transaction", n)
	if n > servedAdmissionAllocs {
		t.Fatalf("served admission allocates %v per transaction, want <= %d", n, servedAdmissionAllocs)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}
