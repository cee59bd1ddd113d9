package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"unsafe"

	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteMsg(&buf, m)
	if err != nil {
		t.Fatalf("write %T: %v", m, err)
	}
	if n != buf.Len() {
		t.Fatalf("write %T reported %d bytes, buffered %d", m, n, buf.Len())
	}
	got, rn, err := ReadMsg(&buf)
	if err != nil {
		t.Fatalf("read %T: %v", m, err)
	}
	if rn != n {
		t.Fatalf("read %T consumed %d bytes, wrote %d", m, rn, n)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Msg{
		Begin{Name: "T1", Locals: []LocalDecl{{"a", 1}, {"b", -7}}},
		Begin{Name: "empty"},
		Lock{Entity: "e0"},
		Lock{Entity: "e1", Exclusive: true},
		Unlock{Entity: "e0"},
		Read{Entity: "e1", Local: "a"},
		Write{Entity: "e1", Expr: value.Add(value.L("a"), value.C(3))},
		Compute{Local: "b", Expr: value.Mod(value.Mul(value.L("a"), value.C(-2)), value.C(7))},
		LastLock{},
		Commit{},
		Stats{},
		Committed{Txn: 42, Locals: []LocalDecl{{"a", 9}}, Stats: TxnOutcome{
			OpsExecuted: 10, OpsLost: 3, Rollbacks: 2, Restarts: 1, Waits: 4}},
		RolledBack{Txn: 7, ToLockState: 2, FromState: 19, ToState: 13, Lost: 6},
		Error{Code: CodeRolledBack, Msg: "deadline"},
		StatsReply{Counters: []Counter{{"grants", 12}, {"waits", -1}}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T: got %#v, want %#v", m, got, m)
		}
	}
}

func TestProgramRoundTrip(t *testing.T) {
	progs := []*txn.Program{
		sim.TransferProgram("xfer", "e0", "e1", 5, 3),
		txn.NewProgram("mix").
			Local("x", 2).Local("y", 0).
			LockS("e0").Read("e0", "x").
			LockX("e1").Read("e1", "y").
			Compute("y", value.Max(value.L("x"), value.L("y"))).
			DeclareLastLock().
			Write("e1", value.Add(value.L("y"), value.C(1))).
			Unlock("e1").
			MustBuild(),
	}
	for _, w := range sim.Generate(sim.GenConfig{Txns: 6, Seed: 11, Shape: sim.Mixed, SharedProb: 0.3}).Programs {
		progs = append(progs, w)
	}
	for _, p := range progs {
		msgs, err := ProgramMsgs(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		begin, ok := msgs[0].(Begin)
		if !ok {
			t.Fatalf("%s: first message is %T", p.Name, msgs[0])
		}
		a := NewAssembler(begin)
		for i, m := range msgs[1:] {
			// Exercise the full codec: encode, decode, then feed.
			frame, err := Encode(m)
			if err != nil {
				t.Fatalf("%s msg %d: %v", p.Name, i, err)
			}
			dm, err := Decode(frame[4:])
			if err != nil {
				t.Fatalf("%s msg %d: %v", p.Name, i, err)
			}
			done, err := a.Feed(dm)
			if err != nil {
				t.Fatalf("%s msg %d: %v", p.Name, i, err)
			}
			if done != (i == len(msgs)-2) {
				t.Fatalf("%s msg %d: done=%v", p.Name, i, done)
			}
		}
		c, err := a.Checked()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := c.Program(); !reflect.DeepEqual(got, p) {
			t.Errorf("%s: program round trip mismatch:\n got %v\nwant %v", p.Name, got, p)
		}
	}
}

// TestProgramFrameRoundTrip pins the v2 path end to end: ProgramFrame →
// encode → decode → Program must reproduce every program byte-for-byte,
// and agree exactly with what the v1 Assembler path reconstructs.
func TestProgramFrameRoundTrip(t *testing.T) {
	progs := []*txn.Program{
		sim.TransferProgram("xfer", "e0", "e1", 5, 3),
		txn.NewProgram("mix").
			Local("x", 2).Local("y", 0).
			LockS("e0").Read("e0", "x").
			LockX("e1").Read("e1", "y").
			Compute("y", value.Max(value.L("x"), value.L("y"))).
			DeclareLastLock().
			Write("e1", value.Add(value.L("y"), value.C(1))).
			Unlock("e1").
			MustBuild(),
	}
	progs = append(progs, sim.Generate(sim.GenConfig{Txns: 6, Seed: 11, Shape: sim.Mixed, SharedProb: 0.3}).Programs...)
	for _, p := range progs {
		frame, err := ProgramFrame(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := roundTrip(t, frame)
		bp, ok := got.(BeginProgram)
		if !ok {
			t.Fatalf("%s: round trip returned %T", p.Name, got)
		}
		if !reflect.DeepEqual(bp, frame) {
			t.Errorf("%s: frame round trip mismatch:\n got %#v\nwant %#v", p.Name, bp, frame)
		}
		rebuilt, err := bp.Program()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(rebuilt, p) {
			t.Errorf("%s: program mismatch:\n got %v\nwant %v", p.Name, rebuilt, p)
		}
	}
}

// TestVersionNegotiation pins the per-frame version rules: BeginProgram
// only decodes under Version2, every other type only under Version, and
// unknown versions are rejected.
func TestVersionNegotiation(t *testing.T) {
	frame, err := Encode(BeginProgram{Name: "P", Ops: []txn.Op{{Kind: txn.OpCommit}}})
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != Version2 {
		t.Fatalf("BeginProgram frame carries version %d, want %d", frame[4], Version2)
	}
	// Same payload demoted to v1 must be rejected.
	demoted := append([]byte{}, frame[4:]...)
	demoted[0] = Version
	if _, err := Decode(demoted); err == nil {
		t.Error("v1-framed BeginProgram decoded; want rejection")
	}
	// A v1 message promoted to v2 must be rejected.
	lockFrame, err := Encode(Lock{Entity: "e0"})
	if err != nil {
		t.Fatal(err)
	}
	if lockFrame[4] != Version {
		t.Fatalf("Lock frame carries version %d, want %d", lockFrame[4], Version)
	}
	promoted := append([]byte{}, lockFrame[4:]...)
	promoted[0] = Version2
	if _, err := Decode(promoted); err == nil {
		t.Error("v2-framed Lock decoded; want rejection")
	}
	unknown := append([]byte{}, lockFrame[4:]...)
	unknown[0] = 9
	if _, err := Decode(unknown); err == nil {
		t.Error("version-9 frame decoded; want rejection")
	}
}

// TestAppendMsgBatches pins the batching encoder: frames appended to
// one buffer must byte-match their individual encodings and decode as a
// stream.
func TestAppendMsgBatches(t *testing.T) {
	msgs := []Msg{
		Committed{Txn: 1, Locals: []LocalDecl{{"a", 9}}},
		RolledBack{Txn: 1, Lost: 2},
		Error{Code: CodeBusy, Msg: "full"},
	}
	var batch, concat []byte
	for _, m := range msgs {
		var err error
		if batch, err = AppendMsg(batch, m); err != nil {
			t.Fatal(err)
		}
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, frame...)
	}
	if !bytes.Equal(batch, concat) {
		t.Fatalf("batched encoding diverges from per-frame encoding")
	}
	r := bytes.NewReader(batch)
	for i, want := range msgs {
		got, _, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after batch", r.Len())
	}
}

// TestBeginProgramRejectsInvalid mirrors TestAssemblerRejectsInvalid
// for the v2 path: a protocol-valid frame carrying an invalid program
// must fail at Program(), not decode.
func TestBeginProgramRejectsInvalid(t *testing.T) {
	bad := []BeginProgram{
		// Write without a lock.
		{Name: "bad", Locals: []LocalDecl{{"x", 0}},
			Ops: []txn.Op{{Kind: txn.OpWrite, Entity: "e0", Expr: value.C(1)}, {Kind: txn.OpCommit}}},
		// Duplicate local declaration.
		{Name: "dup", Locals: []LocalDecl{{"x", 0}, {"x", 1}}},
		// Mid-program commit.
		{Name: "mid", Ops: []txn.Op{{Kind: txn.OpCommit}, {Kind: txn.OpLockS, Entity: "e0"}}},
	}
	for _, bp := range bad {
		got := roundTrip(t, bp) // stays protocol-valid on the wire
		if _, err := got.(BeginProgram).Program(); err == nil {
			t.Errorf("%s: invalid program accepted", bp.Name)
		}
	}
}

func TestAssemblerRejectsInvalid(t *testing.T) {
	// Write without a lock: protocol-valid messages, invalid program.
	a := NewAssembler(Begin{Name: "bad", Locals: []LocalDecl{{"x", 0}}})
	for _, m := range []Msg{Write{Entity: "e0", Expr: value.C(1)}, Commit{}} {
		if _, err := a.Feed(m); err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
	if _, err := a.Checked(); err == nil {
		t.Error("invalid program assembled without error")
	}

	// Unexpected message kind inside a transaction.
	a = NewAssembler(Begin{Name: "bad2"})
	if _, err := a.Feed(Stats{}); !errors.Is(err, ErrProtocol) {
		t.Errorf("feeding Stats: got %v, want ErrProtocol", err)
	}

	// Incomplete program.
	a = NewAssembler(Begin{Name: "bad3"})
	if _, err := a.Checked(); !errors.Is(err, ErrProtocol) {
		t.Error("assembling before Commit should fail")
	}
}

func TestReadMsgErrors(t *testing.T) {
	valid, err := Encode(Lock{Entity: "e0", Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		_, _, err := ReadMsg(bytes.NewReader(valid[:3]))
		if err == nil {
			t.Error("want error")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := ReadMsg(bytes.NewReader(valid[:len(valid)-2]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("got %v, want unexpected EOF", err)
		}
	})
	t.Run("oversize frame", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		_, _, err := ReadMsg(bytes.NewReader(hdr[:]))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame[4] = Version + 1
		_, _, err := ReadMsg(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame[5] = 0xEE
		_, _, err := ReadMsg(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame = append(frame, 0x01)
		binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
		_, _, err := ReadMsg(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		// Claimed string longer than the remaining payload.
		payload := []byte{Version, byte(TUnlock), 0x20, 'a'}
		if _, err := Decode(payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
}

func TestExprLimits(t *testing.T) {
	deep := value.Expr(value.C(1))
	for i := 0; i < MaxExprDepth+2; i++ {
		deep = value.Add(deep, value.C(1))
	}
	frame, err := Encode(Write{Entity: "e0", Expr: deep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(frame[4:]); !errors.Is(err, ErrProtocol) {
		t.Errorf("deep expression: got %v, want ErrProtocol", err)
	}
}

func TestRetryable(t *testing.T) {
	for code, want := range map[ErrCode]bool{
		CodeBadRequest: false, CodeRolledBack: true, CodeShutdown: true,
		CodeBusy: true, CodeInternal: false,
	} {
		if got := code.Retryable(); got != want {
			t.Errorf("%v retryable = %v, want %v", code, got, want)
		}
	}
}

// TestReaderReusesBufferWithoutAliasing reads a stream of frames —
// programs, and a reply large enough to outgrow the kept buffer —
// through one Reader and checks every message only after all were
// read: the payload buffer is overwritten frame after frame, so any
// decoded string still pointing into it would have changed.
func TestReaderReusesBufferWithoutAliasing(t *testing.T) {
	var want []Msg
	for _, p := range sim.Generate(sim.GenConfig{Txns: 8, Seed: 5, Shape: sim.Mixed, SharedProb: 0.3}).Programs {
		frame, err := ProgramFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame)
	}
	big := StatsReply{}
	for i := 0; i < 800; i++ {
		big.Counters = append(big.Counters, Counter{Name: fmt.Sprintf("%0200d", i), Val: int64(i)})
	}
	want = append(want[:4:4], append([]Msg{big}, want[4:]...)...)
	var stream bytes.Buffer
	for i, m := range want {
		if _, err := WriteMsg(&stream, m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	rd := NewReader(&stream)
	var got []Msg
	for range want {
		m, _, err := rd.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("messages changed after later frames reused the payload buffer")
	}
	if cap(rd.buf) > maxKeptBuf {
		t.Errorf("reader kept a %d-byte buffer after a large frame, want <= %d", cap(rd.buf), maxKeptBuf)
	}
}

// TestReaderSharesNames checks the decode-side name reuse: within one
// frame a repeated entity or local name is one string.
func TestReaderSharesNames(t *testing.T) {
	p := sim.TransferProgram("xfer", "e0", "e1", 5, 3)
	frame, err := ProgramFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(frame)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := NewReader(bytes.NewReader(enc)).ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	bp := m.(BeginProgram)
	if !reflect.DeepEqual(bp, frame) {
		t.Fatalf("decoded %#v, want %#v", bp, frame)
	}
	first := map[string]*byte{}
	for i, op := range bp.Ops {
		for _, s := range []string{op.Entity, op.Local} {
			if s == "" {
				continue
			}
			if ptr, ok := first[s]; !ok {
				first[s] = unsafe.StringData(s)
			} else if ptr != unsafe.StringData(s) {
				t.Fatalf("op %d: %q decoded twice in one frame", i, s)
			}
		}
	}
	if len(first) < 2 {
		t.Fatalf("program names %v: too few to exercise reuse", first)
	}
}

// TestReaderGrowsWithArrivingBytes announces the largest frame and
// delivers a few bytes of it: the read fails at the truncation having
// allocated for what arrived, not for what was announced.
func TestReaderGrowsWithArrivingBytes(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	rd := NewReader(io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(make([]byte, 10_000))))
	if _, _, err := rd.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want unexpected EOF", err)
	}
	if c := cap(rd.buf); c > 4*10_000 {
		t.Fatalf("10 KB of an announced %d-byte frame grew the buffer to %d bytes", MaxFrame, c)
	}
}
