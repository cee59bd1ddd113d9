package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// roundTrip encodes m on stream 9, reads it back through ReadFrame and
// returns the decoded message.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	frame, err := EncodeTagged(9, m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	f, n, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("read %T: %v", m, err)
	}
	if n != len(frame) {
		t.Fatalf("read %T consumed %d bytes, wrote %d", m, n, len(frame))
	}
	if f.Stream != 9 {
		t.Fatalf("read %T on stream %d, want 9", m, f.Stream)
	}
	return f.Msg
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Msg{
		BeginProgram{Name: "empty"},
		BeginProgram{
			Name:   "T1",
			Locals: []LocalDecl{{"a", 1}, {"b", -7}},
			Ops: []txn.Op{
				{Kind: txn.OpLockS, Entity: "e0"},
				{Kind: txn.OpLockX, Entity: "e1"},
				{Kind: txn.OpRead, Entity: "e1", Local: "a"},
				{Kind: txn.OpCompute, Local: "b", Expr: value.Mod(value.Mul(value.L("a"), value.C(-2)), value.C(7))},
				{Kind: txn.OpDeclareLastLock},
				{Kind: txn.OpWrite, Entity: "e1", Expr: value.Add(value.L("a"), value.C(3))},
				{Kind: txn.OpUnlock, Entity: "e0"},
				{Kind: txn.OpCommit},
			},
		},
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

// TestProgramRoundTrip ships a batch of programs the way a multiplexed
// client does — one frame per program, each on its own stream, all in
// one buffer — and rebuilds each program from its frame.
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
	progs = append(progs, sim.Generate(sim.GenConfig{Txns: 6, Seed: 11, Shape: sim.Mixed, SharedProb: 0.3}).Programs...)
	var buf []byte
	for i, p := range progs {
		frame, err := ProgramFrame(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if buf, err = AppendTagged(buf, uint32(i+1), frame); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	rd := NewReader(bytes.NewReader(buf))
	for i, p := range progs {
		f, _, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if f.Stream != uint32(i+1) {
			t.Fatalf("%s: stream %d, want %d", p.Name, f.Stream, i+1)
		}
		c, err := f.Msg.(BeginProgram).Checked()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := c.Program(); !reflect.DeepEqual(got, p) {
			t.Errorf("%s: program round trip mismatch:\n got %v\nwant %v", p.Name, got, p)
		}
	}
}

// TestProgramFrameRoundTrip pins the program path end to end:
// ProgramFrame → encode → decode → Program must reproduce every program
// exactly.
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

// TestVersionNegotiation pins the version rule: the version byte is
// the whole negotiation, every frame carries Version3, and the retired
// versions 1 and 2 — like any other — are refused with an error naming
// the version wanted.
func TestVersionNegotiation(t *testing.T) {
	frame, err := EncodeTagged(1, BeginProgram{Name: "P", Ops: []txn.Op{{Kind: txn.OpCommit}}})
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != Version3 {
		t.Fatalf("frame carries version %d, want %d", frame[4], Version3)
	}
	for _, ver := range []byte{0, 1, 2, 4, 9} {
		payload := append([]byte{}, frame[4:]...)
		payload[0] = ver
		_, err := DecodeFrame(payload)
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "want 3") {
			t.Errorf("version-%d frame: got %v, want a protocol error naming version 3", ver, err)
		}
	}
}

// TestAppendMsgBatches pins the connection-level encoder: AppendMsg
// frames are stream-0 frames, byte-identical to AppendTagged on stream
// 0, and a batch of them decodes as a stream.
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
		frame, err := EncodeTagged(0, m)
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, frame...)
	}
	if !bytes.Equal(batch, concat) {
		t.Fatalf("AppendMsg diverges from stream-0 AppendTagged")
	}
	r := bytes.NewReader(batch)
	for i, want := range msgs {
		got, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Stream != 0 || !reflect.DeepEqual(got.Msg, want) {
			t.Fatalf("frame %d: got %#v, want %#v on stream 0", i, got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after batch", r.Len())
	}
}

// TestBeginProgramRejectsInvalid: a protocol-valid frame carrying an
// invalid program must fail at Program(), not decode.
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

func TestReadFrameErrors(t *testing.T) {
	valid, err := EncodeTagged(1, BeginProgram{Name: "P", Ops: []txn.Op{{Kind: txn.OpUnlock, Entity: "e0"}}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(valid[:3]))
		if err == nil {
			t.Error("want error")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-2]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("got %v, want unexpected EOF", err)
		}
	})
	t.Run("oversize frame", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame[4] = Version3 + 1
		_, _, err := ReadFrame(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame[6] = 0xEE
		_, _, err := ReadFrame(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame = append(frame, 0x01)
		binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
		_, _, err := ReadFrame(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		// An unlock op whose entity name claims more bytes than remain.
		payload := []byte{Version3, 1, byte(TBeginProgram), 1, 'P', 0, 1, opUnlock, 0x20, 'a'}
		if _, err := DecodeFrame(payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
}

// deepExpr nests n additions.
func deepExpr(n int) value.Expr {
	e := value.Expr(value.C(1))
	for i := 0; i < n; i++ {
		e = value.Add(e, value.C(1))
	}
	return e
}

// TestExprLimits pins the expression budget on both sides of the
// wire: the decoder refuses an over-deep expression, and the encoder
// refuses to emit one, accepting exactly the deepest the decoder takes.
func TestExprLimits(t *testing.T) {
	writeOf := func(e value.Expr) BeginProgram {
		return BeginProgram{Name: "w", Ops: []txn.Op{{Kind: txn.OpWrite, Entity: "e0", Expr: e}}}
	}
	if _, err := EncodeTagged(1, writeOf(deepExpr(MaxExprDepth+2))); !errors.Is(err, ErrProtocol) {
		t.Errorf("encoding a deep expression: got %v, want ErrProtocol", err)
	}
	if _, err := EncodeTagged(1, writeOf(deepExpr(MaxExprDepth))); err != nil {
		t.Errorf("encoding an expression at the depth limit: %v", err)
	}

	// Hand-build the over-deep frame the encoder refuses to make.
	payload := []byte{Version3, 1, byte(TBeginProgram), 1, 'w', 0, 1, opWrite, 2, 'e', '0'}
	for i := 0; i < MaxExprDepth+2; i++ {
		payload = append(payload, 2, byte(value.OpAdd))
	}
	payload = append(payload, 0, 2)
	for i := 0; i < MaxExprDepth+2; i++ {
		payload = append(payload, 0, 2)
	}
	if _, err := DecodeFrame(payload); !errors.Is(err, ErrProtocol) {
		t.Errorf("decoding a deep expression: got %v, want ErrProtocol", err)
	}
}

// TestEncoderEnforcesDecoderLimits: every message the decoder would
// refuse for size fails to encode, with an error wrapping ErrProtocol,
// and ProgramFrame refuses such a program before anything is encoded.
func TestEncoderEnforcesDecoderLimits(t *testing.T) {
	long := strings.Repeat("n", MaxString+1)
	// A balanced tree: 9 levels deep, 1023 nodes.
	wide := value.Expr(value.C(1))
	for i := 0; i < 9; i++ {
		wide = value.Add(wide, wide)
	}
	manyLocals := make(map[string]int64, MaxLocals+1)
	for i := 0; i <= MaxLocals; i++ {
		manyLocals[fmt.Sprintf("l%d", i)] = 0
	}
	progs := map[string]*txn.Program{
		"entity name": {Name: "p", Ops: []txn.Op{{Kind: txn.OpLockX, Entity: long}, {Kind: txn.OpCommit}}},
		"local name":  {Name: "p", Locals: map[string]int64{long: 0}},
		"read local":  {Name: "p", Ops: []txn.Op{{Kind: txn.OpRead, Entity: "e0", Local: long}}},
		"expr local":  {Name: "p", Ops: []txn.Op{{Kind: txn.OpCompute, Local: "x", Expr: value.L(long)}}},
		"program":     {Name: long},
		"locals":      {Name: "p", Locals: manyLocals},
		"ops":         {Name: "p", Ops: make([]txn.Op, MaxOps+1)},
		"expr depth":  {Name: "p", Ops: []txn.Op{{Kind: txn.OpWrite, Entity: "e0", Expr: deepExpr(MaxExprDepth + 1)}}},
		"expr nodes":  {Name: "p", Ops: []txn.Op{{Kind: txn.OpCompute, Local: "x", Expr: wide}}},
	}
	for name, p := range progs {
		if _, err := ProgramFrame(p); !errors.Is(err, ErrProtocol) {
			t.Errorf("ProgramFrame with oversize %s: got %v, want ErrProtocol", name, err)
		}
		bp := BeginProgram{Name: p.Name, Ops: p.Ops}
		for l := range p.Locals {
			bp.Locals = append(bp.Locals, LocalDecl{Name: l})
		}
		if _, err := EncodeTagged(1, bp); !errors.Is(err, ErrProtocol) {
			t.Errorf("encoding oversize %s: got %v, want ErrProtocol", name, err)
		}
	}
	replies := map[string]Msg{
		"committed local": Committed{Locals: []LocalDecl{{Name: long}}},
		"counter name":    StatsReply{Counters: []Counter{{Name: long}}},
		"counters":        StatsReply{Counters: make([]Counter, MaxCounters+1)},
	}
	for name, m := range replies {
		if _, err := EncodeTagged(1, m); !errors.Is(err, ErrProtocol) {
			t.Errorf("encoding oversize %s: got %v, want ErrProtocol", name, err)
		}
	}
	// A frame over MaxFrame made of in-limit parts.
	big := BeginProgram{Name: "p"}
	for i := 0; i < MaxOps; i++ {
		big.Ops = append(big.Ops, txn.Op{Kind: txn.OpLockS, Entity: long[:MaxString]})
	}
	if _, err := EncodeTagged(1, big); !errors.Is(err, ErrProtocol) {
		t.Errorf("encoding a frame over MaxFrame: got %v, want ErrProtocol", err)
	}
	// Error text is truncated, not refused: a refusal must always reach
	// its stream.
	got := roundTrip(t, Error{Code: CodeBadRequest, Msg: long})
	if e := got.(Error); e.Msg != long[:MaxString] {
		t.Errorf("long error message decoded to %d bytes, want %d", len(e.Msg), MaxString)
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
	var stream []byte
	for i, m := range want {
		var err error
		if stream, err = AppendTagged(stream, uint32(i+1), m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	rd := NewReader(bytes.NewReader(stream))
	var got []Msg
	for range want {
		f, _, err := rd.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Msg)
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
	enc, err := EncodeTagged(1, frame)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := NewReader(bytes.NewReader(enc)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	bp := f.Msg.(BeginProgram)
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
