package wire

import (
	"bytes"
	"reflect"
	"testing"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// FuzzDecodeFrame throws arbitrary payloads at the frame decoder — the
// server's only input from outside: it must never panic or
// over-allocate, it must refuse every version byte but Version3, and
// anything it accepts must re-encode and re-decode to the same frame
// (the codec is canonical for everything it emits, and the encoder
// accepts everything the decoder does).
func FuzzDecodeFrame(f *testing.F) {
	tagged := []struct {
		stream uint32
		m      Msg
	}{
		{5, BeginProgram{Name: "P"}},
		{1, BeginProgram{
			Name:   "xfer",
			Locals: []LocalDecl{{"t", 0}},
			Ops: []txn.Op{
				{Kind: txn.OpLockX, Entity: "e0"},
				{Kind: txn.OpRead, Entity: "e0", Local: "t"},
				{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
				{Kind: txn.OpWrite, Entity: "e0", Expr: value.L("t")},
				{Kind: txn.OpCommit},
			},
		}},
		{9, Stats{}},
		{7, Committed{Txn: 3, Stats: TxnOutcome{OpsExecuted: 5}}},
		{2, RolledBack{Txn: 1, Lost: 4}},
		{3, Error{Code: CodeBusy, Msg: "full"}},
		{MaxStream, StatsReply{Counters: []Counter{{"grants", 2}}}},
	}
	for _, s := range tagged {
		frame, err := EncodeTagged(s.stream, s.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	// Retired version-1 and version-2 payloads (a Lock, a Committed
	// reply, a BeginProgram) keep the fuzzer exploring the version check.
	f.Add([]byte{1, opLock, 0, 2, 'e', '0'})
	f.Add([]byte{1, byte(TCommitted), 6, 0, 10, 0, 0, 0, 0})
	f.Add([]byte{2, byte(TBeginProgram), 1, 'P', 0, 0})
	// Hand-built edges: a truncated stream varint, a stream tag past
	// MaxStream, and a retired message type.
	f.Add([]byte{Version3, 0xFF})
	f.Add([]byte{Version3, 0x80, 0x80, 0x80, 0x80, 0x10, byte(TStats)})
	f.Add([]byte{Version3, 0x01, opLock, 0, 1, 'e'})
	// Program edges: every op kind including the last-lock declaration,
	// an op list claiming more ops than present, and a truncated op tag.
	xfer, err := EncodeTagged(1, BeginProgram{
		Name:   "xfer",
		Locals: []LocalDecl{{"t", 0}},
		Ops: []txn.Op{
			{Kind: txn.OpLockX, Entity: "e0"},
			{Kind: txn.OpRead, Entity: "e0", Local: "t"},
			{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
			{Kind: txn.OpDeclareLastLock},
			{Kind: txn.OpWrite, Entity: "e0", Expr: value.L("t")},
			{Kind: txn.OpUnlock, Entity: "e0"},
			{Kind: txn.OpCommit},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xfer[4:])
	f.Add([]byte{Version3, 1, byte(TBeginProgram), 1, 'P', 0, 5, opCommit})
	f.Add([]byte{Version3, 1, byte(TBeginProgram), 1, 'P', 0, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeFrame(payload)
		if err != nil {
			return
		}
		if payload[0] != Version3 {
			t.Fatalf("accepted a version-%d payload: %#v", payload[0], fr)
		}
		frame, err := EncodeTagged(fr.Stream, fr.Msg)
		if err != nil {
			t.Fatalf("decoded frame failed to encode: %#v: %v", fr, err)
		}
		fr2, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("re-decode failed: %#v: %v", fr, err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("re-decode mismatch: %#v != %#v", fr, fr2)
		}
	})
}

// FuzzReadFrame throws arbitrary byte streams at a connection's Reader:
// it must never panic or over-allocate, and every frame it reads while
// reusing its payload buffer must equal the frame DecodeFrame makes of
// that frame's own bytes — checked only after the whole stream is read,
// so a decoded message that aliased the reused buffer would show.
func FuzzReadFrame(f *testing.F) {
	one, err := EncodeTagged(1, BeginProgram{Name: "P", Ops: []txn.Op{
		{Kind: txn.OpLockS, Entity: "e0"}, {Kind: txn.OpCommit}}})
	if err != nil {
		f.Fatal(err)
	}
	two, err := EncodeTagged(2, Committed{Txn: 3, Stats: TxnOutcome{OpsExecuted: 5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	f.Add(append(append([]byte{}, one...), two...))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(one[:len(one)-1])
	f.Fuzz(func(t *testing.T, stream []byte) {
		rd := NewReader(bytes.NewReader(stream))
		var got []Frame
		var ends []int
		off := 0
		for {
			fr, n, err := rd.ReadFrame()
			if err != nil {
				break
			}
			off += n
			got = append(got, fr)
			ends = append(ends, off)
		}
		start := 0
		for i, fr := range got {
			want, err := DecodeFrame(stream[start+4 : ends[i]])
			if err != nil {
				t.Fatalf("frame %d read but does not decode alone: %v", i, err)
			}
			if !reflect.DeepEqual(fr, want) {
				t.Fatalf("frame %d changed after later reads: %#v != %#v", i, fr, want)
			}
			start = ends[i]
		}
	})
}
