package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// allMsgs is one instance of every message type.
func allMsgs() []Msg {
	return []Msg{
		BeginProgram{Name: "P"},
		BeginProgram{
			Name:   "xfer",
			Locals: []LocalDecl{{"t", 0}},
			Ops: []txn.Op{
				{Kind: txn.OpLockX, Entity: "e0"},
				{Kind: txn.OpRead, Entity: "e0", Local: "t"},
				{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
				{Kind: txn.OpWrite, Entity: "e0", Expr: value.L("t")},
				{Kind: txn.OpCommit},
			},
		},
		Stats{},
		Committed{Txn: 42, Locals: []LocalDecl{{"a", 9}}, Stats: TxnOutcome{
			OpsExecuted: 10, OpsLost: 3, Rollbacks: 2, Restarts: 1, Waits: 4}},
		RolledBack{Txn: 7, ToLockState: 2, FromState: 19, ToState: 13, Lost: 6},
		Error{Code: CodeBusy, Msg: "full"},
		StatsReply{Counters: []Counter{{"grants", 12}, {"waits", -1}}},
	}
}

func TestTaggedRoundTrip(t *testing.T) {
	streams := []uint32{0, 1, 5, 1 << 20, MaxStream}
	for _, m := range allMsgs() {
		for _, stream := range streams {
			frame, err := EncodeTagged(stream, m)
			if err != nil {
				t.Fatalf("encode %T stream %d: %v", m, stream, err)
			}
			f, err := DecodeFrame(frame[4:])
			if err != nil {
				t.Fatalf("decode %T stream %d: %v", m, stream, err)
			}
			if f.Stream != stream {
				t.Fatalf("%T: got stream %d, want %d", m, f.Stream, stream)
			}
			if !reflect.DeepEqual(f.Msg, m) {
				t.Fatalf("%T round trip: got %#v, want %#v", m, f.Msg, m)
			}
		}
	}
}

// TestTaggedGoldenBytes pins the frame layout byte for byte — one frame
// per message type, each on a non-zero stream — so clients and servers
// built from earlier releases keep interoperating.
func TestTaggedGoldenBytes(t *testing.T) {
	golden := []struct {
		stream uint32
		m      Msg
		hex    string
	}{
		{5, BeginProgram{
			Name:   "xfer",
			Locals: []LocalDecl{{"t", 0}, {"u", -3}},
			Ops: []txn.Op{
				{Kind: txn.OpLockX, Entity: "e0"},
				{Kind: txn.OpLockS, Entity: "e1"},
				{Kind: txn.OpRead, Entity: "e0", Local: "t"},
				{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
				{Kind: txn.OpDeclareLastLock},
				{Kind: txn.OpWrite, Entity: "e0", Expr: value.Mod(value.L("t"), value.C(-7))},
				{Kind: txn.OpUnlock, Entity: "e0"},
				{Kind: txn.OpCommit},
			},
		}, "0000003b03050a04786665720201740001750508020102653002000265310402653001740601740200010174000207050265300204010174000d0302653008"},
		{300, Stats{}, "0000000403ac0209"},
		{7, Committed{Txn: 42, Locals: []LocalDecl{{"a", 9}}, Stats: TxnOutcome{
			OpsExecuted: 10, OpsLost: 3, Rollbacks: 2, Restarts: 1, Waits: 4}},
			"0000000d03071054010161121406040208"},
		{1 << 20, RolledBack{Txn: 7, ToLockState: 2, FromState: 19, ToState: 13, Lost: 6},
			"0000000a03808040110e04261a0c"},
		{3, Error{Code: CodeBusy, Msg: "full"}, "00000009030312040466756c6c"},
		{MaxStream, StatsReply{Counters: []Counter{{"grants", 12}, {"waits", -1}}},
			"0000001703ffffffff0f1302066772616e74731805776169747301"},
	}
	for _, g := range golden {
		frame, err := EncodeTagged(g.stream, g.m)
		if err != nil {
			t.Fatalf("encode %T: %v", g.m, err)
		}
		if got := hex.EncodeToString(frame); got != g.hex {
			t.Errorf("%T on stream %d:\n got %s\nwant %s", g.m, g.stream, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		f, err := DecodeFrame(want[4:])
		if err != nil {
			t.Fatalf("decode golden %T: %v", g.m, err)
		}
		if f.Stream != g.stream || !reflect.DeepEqual(f.Msg, g.m) {
			t.Errorf("golden %T decoded to %#v", g.m, f)
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated stream tag", []byte{Version3, 0xFF}},
		{"missing type", []byte{Version3, 0x01}},
		{"stream overflow", append([]byte{Version3, 0x80, 0x80, 0x80, 0x80, 0x10}, byte(TStats))},
		{"retired lock message", []byte{Version3, 0x01, opLock, 0, 1, 'e'}},
		{"retired begin message", []byte{Version3, 0x01, 1, 1, 'T', 0}},
		{"version 1 frame", []byte{1, opLock, 0, 2, 'e', '0'}},
		{"version 2 frame", []byte{2, byte(TBeginProgram), 1, 'P', 0, 0}},
		{"unknown op tag", []byte{Version3, 0x01, byte(TBeginProgram), 1, 'P', 0, 1, 0x7F}},
		{"trailing garbage", append(mustTagged(t, 1, Stats{}), 0xAA)},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want ErrProtocol", tc.name, err)
		}
	}
}

// mustTagged returns the payload (no length prefix) of a tagged frame.
func mustTagged(t *testing.T, stream uint32, m Msg) []byte {
	t.Helper()
	frame, err := EncodeTagged(stream, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame[4:]
}

// TestReadFrameMixedVersions drives ReadFrame over a stream in which a
// retired version-1 frame follows valid frames: the valid frames
// decode, and the legacy one is refused as a protocol error rather
// than misparsed.
func TestReadFrameMixedVersions(t *testing.T) {
	var stream []byte
	var err error
	stream, err = AppendTagged(stream, 7, Stats{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err = AppendTagged(stream, 3, Committed{Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A version-1 Lock frame, as a retired per-operation client sent it.
	stream = append(stream, 0, 0, 0, 6, 1, opLock, 1, 2, 'e', '0')
	r := bytes.NewReader(stream)
	want := []Frame{
		{Stream: 7, Msg: Stats{}},
		{Stream: 3, Msg: Committed{Txn: 1}},
	}
	for i, w := range want {
		f, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, w) {
			t.Fatalf("frame %d: got %#v, want %#v", i, f, w)
		}
	}
	if _, _, err := ReadFrame(r); !errors.Is(err, ErrProtocol) {
		t.Fatalf("version-1 frame: got %v, want ErrProtocol", err)
	}
}

// TestAppendTaggedBatches: many tagged frames coalesced into one
// buffer decode back frame by frame.
func TestAppendTaggedBatches(t *testing.T) {
	var buf []byte
	var err error
	for stream := uint32(1); stream <= 40; stream++ {
		buf, err = AppendTagged(buf, stream, Committed{Txn: int64(stream)})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for stream := uint32(1); stream <= 40; stream++ {
		f, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("stream %d: %v", stream, err)
		}
		if f.Stream != stream {
			t.Fatalf("got stream %d, want %d", f.Stream, stream)
		}
		if c, ok := f.Msg.(Committed); !ok || c.Txn != int64(stream) {
			t.Fatalf("stream %d: got %#v", stream, f.Msg)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}
