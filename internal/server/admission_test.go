package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/wire"
)

// servedAdmissionAllocs bounds the allocations of one served
// transaction's trip through the server: read and decode its tagged
// frame through the connection's reader, validate it once, register,
// step to commit, build the Committed reply and encode it into the
// writer's reused buffer. Measured at 183 with registration under the
// engine lock, eager figure-only analysis maps, a fresh payload buffer
// per frame and a map-built, re-sorted reply; the bound is the count
// with all four removed.
const servedAdmissionAllocs = 70

// transferFrame encodes a fixed 4-lock transfer as a frame on stream 1:
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

// TestServedAdmissionAllocs pins the served path's allocation count on
// the server's own engine, reader and reply function, so a second
// validation or another per-transaction allocation shows up as a
// failure.
func TestServedAdmissionAllocs(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store, Strategy: core.MCS})
	sys := srv.System()
	frame := transferFrame(t)
	src := bytes.NewReader(frame)
	rd := wire.NewReader(src)
	var out []byte
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		f, _, err := rd.ReadFrame()
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
		reply := srv.committedReply(id, prog.Analysis())
		if out, err = wire.AppendTagged(out[:0], f.Stream, reply); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("served admission: %v allocs per transaction", n)
	if n > servedAdmissionAllocs {
		t.Fatalf("served admission allocates %v per transaction, want <= %d", n, servedAdmissionAllocs)
	}
	if got := len(sys.IDs()); got != 0 {
		t.Fatalf("%d transactions left registered; the reply must retire them", got)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestStalledFramesPinLittleMemory opens connections that each announce
// a MaxFrame payload, send one byte of it and stall. The server must
// grow a frame's buffer as its bytes arrive rather than allocate the
// announced length up front, so the stalled sessions together hold far
// less than one MiB each.
func TestStalledFramesPinLittleMemory(t *testing.T) {
	const conns = 64
	srv := New(Config{Store: entity.NewUniformStore("e", 4, 100)})
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	clients := make([]net.Conn, 0, conns)
	for i := 0; i < conns; i++ {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		clients = append(clients, cc)
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], wire.MaxFrame)
		hdr[4] = wire.Version3
		cc.SetDeadline(time.Now().Add(5 * time.Second))
		// The pipe is unbuffered: the write returns once the session has
		// read the header and the first payload byte.
		if _, err := cc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let every session block on the rest
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d stalled sessions hold %d KiB of heap", conns, grown>>10)
	if limit := int64(conns) << 20 / 8; grown > limit {
		t.Errorf("%d stalled sessions grew the heap by %d KiB, want < %d KiB", conns, grown>>10, limit>>10)
	}
	for _, cc := range clients {
		cc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessionsActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still active after their peers closed", srv.sessionsActive.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
