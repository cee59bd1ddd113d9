// Package wire defines the binary protocol spoken between the network
// transaction service (internal/server) and its clients
// (internal/client).
//
// Framing is length-prefixed: every frame is a 4-byte big-endian
// payload length followed by the payload. The payload starts with a
// protocol version byte and a message-type byte; the rest is the
// message body encoded with varints and length-prefixed strings.
//
// A transaction is shipped as a message sequence mirroring the paper's
// atomic operations: Begin (name + local declarations), then one
// message per operation (Lock/Unlock/Read/Write/Compute/LastLock), then
// Commit, which asks the server to register and execute the program to
// completion. The server replies with zero or more RolledBack
// notifications (one per §2 rollback the engine applied to the
// transaction while it ran) followed by exactly one Committed or Error
// frame. Stats may be sent between transactions and is answered with a
// StatsReply counter snapshot.
//
// Protocol v2 adds BeginProgram: the entire program (Begin + operations
// + Commit) in one frame, so a transaction costs one frame read and one
// decode instead of one per operation. Versioning is per-frame — the
// version byte of each frame declares what it carries — so v1 and v2
// clients coexist on one server with no handshake, and server replies
// are v1 either way.
//
// Protocol v3 adds stream multiplexing: a v3 frame carries a
// client-chosen stream ID between the version byte and the message, so
// one connection interleaves many concurrent transactions and the
// server routes each reply (and rollback notification) back to the
// stream that submitted the program. Only whole-program submissions and
// their replies may be tagged (BeginProgram, Stats client->server;
// Committed, RolledBack, Error, StatsReply server->client) — the
// stateful v1 per-operation sequence cannot interleave and stays
// untagged. As with v2, negotiation is per-frame: v1, v2 and v3 traffic
// coexist on one connection, and untagged frames keep their exact v1/v2
// byte encoding.
//
// Everything decoded from the network is bounds-checked: frame size,
// string length, op and local counts, and expression size/depth all
// have hard limits, so a malicious or corrupted peer cannot force large
// allocations or deep recursion (see the fuzz tests).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Version is the base protocol version. Every message defined by
// protocol v1 is framed with this version byte, and a v1 frame carrying
// any other version byte is rejected.
const Version byte = 1

// Version2 extends v1 with the BeginProgram frame, which ships a whole
// transaction program in one frame instead of one message per
// operation. Negotiation is per-frame: the version byte of each frame
// declares what it carries, so a v2 client needs no handshake and v1
// traffic (including every server reply) is unchanged. Only
// BeginProgram frames carry this version byte.
const Version2 byte = 2

// Version3 tags a frame with a stream ID so one connection carries many
// concurrent transactions. A v3 payload is the version byte, the stream
// ID as a uvarint, then the tagged message encoded exactly as its v1/v2
// body (type byte + fields). Only the multiplexable messages may be
// tagged — see TaggableType.
const Version3 byte = 3

// Limits enforced during decoding.
const (
	// MaxFrame is the largest accepted payload, in bytes.
	MaxFrame = 1 << 20
	// MaxStream bounds v3 stream IDs (fits uint32 with room to spare;
	// a malicious peer cannot force sparse-map blowups past it).
	MaxStream = 1<<32 - 1
	// MaxString bounds every decoded string (names, error messages).
	MaxString = 1 << 10
	// MaxLocals bounds local declarations per Begin/Committed message.
	MaxLocals = 1 << 10
	// MaxOps bounds operations per transaction program.
	MaxOps = 1 << 13
	// MaxExprNodes bounds nodes per expression.
	MaxExprNodes = 1 << 9
	// MaxExprDepth bounds expression nesting.
	MaxExprDepth = 64
	// MaxCounters bounds counters per StatsReply.
	MaxCounters = 1 << 10
)

// Type identifies a message.
type Type byte

// Message types. 1-15 are client->server, 16+ are server->client.
const (
	TBegin    Type = 1
	TLock     Type = 2
	TUnlock   Type = 3
	TRead     Type = 4
	TWrite    Type = 5
	TCompute  Type = 6
	TLastLock Type = 7
	TCommit   Type = 8
	TStats    Type = 9
	// TBeginProgram is the v2 whole-program frame (see BeginProgram).
	TBeginProgram Type = 10
	TCommitted    Type = 16
	TRolledBack   Type = 17
	TError        Type = 18
	TStatsReply   Type = 19
)

func (t Type) String() string {
	switch t {
	case TBegin:
		return "begin"
	case TLock:
		return "lock"
	case TUnlock:
		return "unlock"
	case TRead:
		return "read"
	case TWrite:
		return "write"
	case TCompute:
		return "compute"
	case TLastLock:
		return "last-lock"
	case TCommit:
		return "commit"
	case TStats:
		return "stats"
	case TBeginProgram:
		return "begin-program"
	case TCommitted:
		return "committed"
	case TRolledBack:
		return "rolled-back"
	case TError:
		return "error"
	case TStatsReply:
		return "stats-reply"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ErrCode classifies an Error frame.
type ErrCode byte

// Error codes. Retryable reports which ones a client may retry.
const (
	// CodeBadRequest: malformed frame, invalid program, or a message
	// arriving out of protocol order. Not retryable.
	CodeBadRequest ErrCode = 1
	// CodeRolledBack: the server rolled the transaction back to its
	// initial state and discarded it (request deadline expired, or the
	// engine could not run it to commit). Retryable: re-running the
	// program is exactly the §2 re-execution, performed by the client.
	CodeRolledBack ErrCode = 2
	// CodeShutdown: the server is draining; the transaction was rolled
	// back or refused. Retryable (possibly against a restarted server).
	CodeShutdown ErrCode = 3
	// CodeBusy: the session limit and accept backlog are full. Retryable.
	CodeBusy ErrCode = 4
	// CodeInternal: unexpected engine failure. Not retryable.
	CodeInternal ErrCode = 5
)

func (c ErrCode) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeRolledBack:
		return "rolled-back"
	case CodeShutdown:
		return "shutdown"
	case CodeBusy:
		return "busy"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("ErrCode(%d)", int(c))
	}
}

// Retryable reports whether a client may usefully retry after this code.
func (c ErrCode) Retryable() bool {
	return c == CodeRolledBack || c == CodeShutdown || c == CodeBusy
}

// Msg is one protocol message.
type Msg interface {
	Type() Type
}

// LocalDecl declares one local variable and its value.
type LocalDecl struct {
	Name string
	Val  int64
}

// Counter is one named counter in a StatsReply.
type Counter struct {
	Name string
	Val  int64
}

// Begin opens a transaction: program name plus local declarations.
type Begin struct {
	Name   string
	Locals []LocalDecl
}

// Lock requests a shared or exclusive lock on an entity.
type Lock struct {
	Entity    string
	Exclusive bool
}

// Unlock releases an entity (shrinking phase).
type Unlock struct{ Entity string }

// Read reads an entity into a local.
type Read struct{ Entity, Local string }

// Write writes an expression over locals to an entity.
type Write struct {
	Entity string
	Expr   value.Expr
}

// Compute assigns an expression over locals to a local.
type Compute struct {
	Local string
	Expr  value.Expr
}

// LastLock is the §5 declaration that no lock requests follow.
type LastLock struct{}

// BeginProgram is the v2 whole-transaction frame: name, local
// declarations and the complete operation list in one message, so a
// transaction costs one frame read and one decode instead of one per
// operation. It is framed with Version2; everything else on the
// connection (including replies) stays v1. Ops reuse the v1 message
// type bytes as operation tags, each followed by the same body encoding
// as the corresponding per-operation message.
type BeginProgram struct {
	Name   string
	Locals []LocalDecl
	Ops    []txn.Op
}

// Commit ends the program and asks the server to execute it.
type Commit struct{}

// Stats requests a counter snapshot.
type Stats struct{}

// TxnOutcome summarizes one executed transaction.
type TxnOutcome struct {
	OpsExecuted int64
	OpsLost     int64
	Rollbacks   int64
	Restarts    int64
	Waits       int64
}

// Committed reports a successful transaction: its server-side ID, final
// local values, and execution counters.
type Committed struct {
	Txn    int64
	Locals []LocalDecl
	Stats  TxnOutcome
}

// RolledBack notifies the client that the engine rolled its in-flight
// transaction back to lock state ToLockState (0 = total restart). The
// server re-executes automatically; the notification is informational.
type RolledBack struct {
	Txn         int64
	ToLockState int64
	FromState   int64
	ToState     int64
	Lost        int64
}

// Error reports a failed request.
type Error struct {
	Code ErrCode
	Msg  string
}

// StatsReply carries a counter snapshot.
type StatsReply struct{ Counters []Counter }

// Type implementations.

// Type implements Msg.
func (Begin) Type() Type { return TBegin }

// Type implements Msg.
func (Lock) Type() Type { return TLock }

// Type implements Msg.
func (Unlock) Type() Type { return TUnlock }

// Type implements Msg.
func (Read) Type() Type { return TRead }

// Type implements Msg.
func (Write) Type() Type { return TWrite }

// Type implements Msg.
func (Compute) Type() Type { return TCompute }

// Type implements Msg.
func (LastLock) Type() Type { return TLastLock }

// Type implements Msg.
func (Commit) Type() Type { return TCommit }

// Type implements Msg.
func (BeginProgram) Type() Type { return TBeginProgram }

// Type implements Msg.
func (Stats) Type() Type { return TStats }

// Type implements Msg.
func (Committed) Type() Type { return TCommitted }

// Type implements Msg.
func (RolledBack) Type() Type { return TRolledBack }

// Type implements Msg.
func (Error) Type() Type { return TError }

// Type implements Msg.
func (StatsReply) Type() Type { return TStatsReply }

// ErrProtocol wraps every decode failure, so transports can distinguish
// protocol corruption from I/O errors.
var ErrProtocol = errors.New("wire: protocol error")

func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// --- encoding primitives ---

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendExpr(b []byte, e value.Expr) ([]byte, error) {
	switch x := e.(type) {
	case value.Const:
		b = append(b, 0)
		return appendVarint(b, int64(x)), nil
	case value.Local:
		b = append(b, 1)
		return appendString(b, string(x)), nil
	case value.Binary:
		b = append(b, 2, byte(x.Op))
		b, err := appendExpr(b, x.L)
		if err != nil {
			return nil, err
		}
		return appendExpr(b, x.R)
	default:
		return nil, fmt.Errorf("wire: cannot encode expression type %T", e)
	}
}

// decoder consumes a payload body with bounds checks.
type decoder struct {
	b []byte
	// seen holds the distinct names decoded so far in this frame (up to
	// its length); a repeated name reuses the first string instead of
	// allocating another.
	seen  [32]string
	nseen int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, protoErr("truncated varint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, protoErr("truncated varint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, protoErr("truncated byte")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > MaxString {
		return "", protoErr("string length %d exceeds %d", n, MaxString)
	}
	if uint64(len(d.b)) < n {
		return "", protoErr("truncated string")
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// name decodes an entity or local name. Names repeat within a frame —
// every lock, read and write of an entity, every reference to a local —
// so each distinct name is allocated once per frame. Like every decoded
// string, the result never aliases the payload.
func (d *decoder) name() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > MaxString {
		return "", protoErr("string length %d exceeds %d", n, MaxString)
	}
	if uint64(len(d.b)) < n {
		return "", protoErr("truncated string")
	}
	b := d.b[:n]
	d.b = d.b[n:]
	for _, s := range d.seen[:d.nseen] {
		if s == string(b) {
			return s, nil
		}
	}
	s := string(b)
	if d.nseen < len(d.seen) {
		d.seen[d.nseen] = s
		d.nseen++
	}
	return s, nil
}

func (d *decoder) expr(depth int, budget *int) (value.Expr, error) {
	if depth > MaxExprDepth {
		return nil, protoErr("expression deeper than %d", MaxExprDepth)
	}
	*budget--
	if *budget < 0 {
		return nil, protoErr("expression larger than %d nodes", MaxExprNodes)
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return value.Const(v), nil
	case 1:
		s, err := d.name()
		if err != nil {
			return nil, err
		}
		return value.Local(s), nil
	case 2:
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if value.BinOp(op) > value.OpMax {
			return nil, protoErr("unknown operator %d", op)
		}
		l, err := d.expr(depth+1, budget)
		if err != nil {
			return nil, err
		}
		r, err := d.expr(depth+1, budget)
		if err != nil {
			return nil, err
		}
		return value.Binary{Op: value.BinOp(op), L: l, R: r}, nil
	default:
		return nil, protoErr("unknown expression tag %d", tag)
	}
}

func (d *decoder) locals(max int) ([]LocalDecl, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(max) {
		return nil, protoErr("%d locals exceeds %d", n, max)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]LocalDecl, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, LocalDecl{Name: name, Val: v})
	}
	return out, nil
}

// ops decodes a BeginProgram operation list. Each operation gets the
// same expression budget a standalone v1 message would, so shipping a
// program in one frame does not tighten (or loosen) the per-operation
// limits.
func (d *decoder) ops(max int) ([]txn.Op, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(max) {
		return nil, protoErr("%d ops exceeds %d", n, max)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]txn.Op, 0, n)
	for i := uint64(0); i < n; i++ {
		tag, err := d.byte()
		if err != nil {
			return nil, err
		}
		var op txn.Op
		switch Type(tag) {
		case TLock:
			mode, err := d.byte()
			if err != nil {
				return nil, err
			}
			if mode > 1 {
				return nil, protoErr("unknown lock mode %d", mode)
			}
			op.Kind = txn.OpLockS
			if mode == 1 {
				op.Kind = txn.OpLockX
			}
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
		case TUnlock:
			op.Kind = txn.OpUnlock
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
		case TRead:
			op.Kind = txn.OpRead
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
			if op.Local, err = d.name(); err != nil {
				return nil, err
			}
		case TWrite:
			op.Kind = txn.OpWrite
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
			budget := MaxExprNodes
			if op.Expr, err = d.expr(0, &budget); err != nil {
				return nil, err
			}
		case TCompute:
			op.Kind = txn.OpCompute
			if op.Local, err = d.name(); err != nil {
				return nil, err
			}
			budget := MaxExprNodes
			if op.Expr, err = d.expr(0, &budget); err != nil {
				return nil, err
			}
		case TLastLock:
			op.Kind = txn.OpDeclareLastLock
		case TCommit:
			op.Kind = txn.OpCommit
		default:
			return nil, protoErr("unknown op tag %d", tag)
		}
		out = append(out, op)
	}
	return out, nil
}

func (d *decoder) done() error {
	if len(d.b) != 0 {
		return protoErr("%d trailing bytes", len(d.b))
	}
	return nil
}

// --- message codec ---

// Encode serializes m into a complete frame (length prefix included).
func Encode(m Msg) ([]byte, error) {
	return AppendMsg(nil, m)
}

// AppendMsg appends m's complete frame (length prefix included) to dst
// and returns the extended slice. It is Encode without the allocation:
// a batching writer encodes many frames into one reused buffer and
// issues a single write.
func AppendMsg(dst []byte, m Msg) ([]byte, error) {
	ver := Version
	if m.Type() == TBeginProgram {
		ver = Version2
	}
	start := len(dst)
	body, err := appendMsgBody(append(dst, 0, 0, 0, 0, ver), m)
	if err != nil {
		return nil, err
	}
	return finishFrame(body, start)
}

// TaggableType reports whether t may travel inside a v3 stream-tagged
// frame: whole-program submissions and counter requests from the
// client, verdicts and notifications from the server. The stateful v1
// per-operation sequence (Begin..Commit) cannot interleave with other
// streams and is excluded.
func TaggableType(t Type) bool {
	switch t {
	case TBeginProgram, TStats, TCommitted, TRolledBack, TError, TStatsReply:
		return true
	}
	return false
}

// Frame is one decoded frame plus its stream routing: Tagged reports a
// v3 frame, in which case Stream carries the client-chosen stream ID.
// Untagged (v1/v2) frames decode with Stream zero.
type Frame struct {
	Stream uint32
	Tagged bool
	Msg    Msg
}

// AppendTagged appends a complete v3 frame tagging m with stream to dst
// and returns the extended slice — the multiplexed counterpart of
// AppendMsg. It fails for message types that may not be tagged.
func AppendTagged(dst []byte, stream uint32, m Msg) ([]byte, error) {
	if !TaggableType(m.Type()) {
		return nil, fmt.Errorf("wire: %s cannot be stream-tagged", m.Type())
	}
	start := len(dst)
	body := appendUvarint(append(dst, 0, 0, 0, 0, Version3), uint64(stream))
	body, err := appendMsgBody(body, m)
	if err != nil {
		return nil, err
	}
	return finishFrame(body, start)
}

// EncodeTagged serializes m into a complete v3 frame tagged with stream.
func EncodeTagged(stream uint32, m Msg) ([]byte, error) {
	return AppendTagged(nil, stream, m)
}

// finishFrame bounds-checks the payload appended since start and patches
// in its 4-byte length prefix.
func finishFrame(body []byte, start int) ([]byte, error) {
	payload := len(body) - start - 4
	if payload > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", payload)
	}
	binary.BigEndian.PutUint32(body[start:start+4], uint32(payload))
	return body, nil
}

// appendMsgBody appends m's type byte and field encoding (everything
// after the version prefix) to dst. Shared by the v1/v2 and v3 framings
// so a tagged message's body is byte-identical to its untagged one.
func appendMsgBody(dst []byte, m Msg) ([]byte, error) {
	body := append(dst, byte(m.Type()))
	var err error
	switch x := m.(type) {
	case Begin:
		body = appendString(body, x.Name)
		body = appendUvarint(body, uint64(len(x.Locals)))
		for _, l := range x.Locals {
			body = appendString(body, l.Name)
			body = appendVarint(body, l.Val)
		}
	case Lock:
		mode := byte(0)
		if x.Exclusive {
			mode = 1
		}
		body = append(body, mode)
		body = appendString(body, x.Entity)
	case Unlock:
		body = appendString(body, x.Entity)
	case Read:
		body = appendString(body, x.Entity)
		body = appendString(body, x.Local)
	case Write:
		body = appendString(body, x.Entity)
		if body, err = appendExpr(body, x.Expr); err != nil {
			return nil, err
		}
	case Compute:
		body = appendString(body, x.Local)
		if body, err = appendExpr(body, x.Expr); err != nil {
			return nil, err
		}
	case LastLock, Commit, Stats:
		// no body
	case BeginProgram:
		body = appendString(body, x.Name)
		body = appendUvarint(body, uint64(len(x.Locals)))
		for _, l := range x.Locals {
			body = appendString(body, l.Name)
			body = appendVarint(body, l.Val)
		}
		body = appendUvarint(body, uint64(len(x.Ops)))
		for _, op := range x.Ops {
			if body, err = appendOp(body, op); err != nil {
				return nil, err
			}
		}
	case Committed:
		body = appendVarint(body, x.Txn)
		body = appendUvarint(body, uint64(len(x.Locals)))
		for _, l := range x.Locals {
			body = appendString(body, l.Name)
			body = appendVarint(body, l.Val)
		}
		body = appendVarint(body, x.Stats.OpsExecuted)
		body = appendVarint(body, x.Stats.OpsLost)
		body = appendVarint(body, x.Stats.Rollbacks)
		body = appendVarint(body, x.Stats.Restarts)
		body = appendVarint(body, x.Stats.Waits)
	case RolledBack:
		body = appendVarint(body, x.Txn)
		body = appendVarint(body, x.ToLockState)
		body = appendVarint(body, x.FromState)
		body = appendVarint(body, x.ToState)
		body = appendVarint(body, x.Lost)
	case Error:
		body = append(body, byte(x.Code))
		body = appendString(body, x.Msg)
	case StatsReply:
		body = appendUvarint(body, uint64(len(x.Counters)))
		for _, c := range x.Counters {
			body = appendString(body, c.Name)
			body = appendVarint(body, c.Val)
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode message type %T", m)
	}
	return body, nil
}

// appendOp encodes one program operation for a BeginProgram body: the
// v1 message type byte as tag, then the same field encoding as the
// corresponding per-operation message.
func appendOp(b []byte, op txn.Op) ([]byte, error) {
	switch op.Kind {
	case txn.OpLockS:
		return appendString(append(b, byte(TLock), 0), op.Entity), nil
	case txn.OpLockX:
		return appendString(append(b, byte(TLock), 1), op.Entity), nil
	case txn.OpUnlock:
		return appendString(append(b, byte(TUnlock)), op.Entity), nil
	case txn.OpRead:
		return appendString(appendString(append(b, byte(TRead)), op.Entity), op.Local), nil
	case txn.OpWrite:
		return appendExpr(appendString(append(b, byte(TWrite)), op.Entity), op.Expr)
	case txn.OpCompute:
		return appendExpr(appendString(append(b, byte(TCompute)), op.Local), op.Expr)
	case txn.OpDeclareLastLock:
		return append(b, byte(TLastLock)), nil
	case txn.OpCommit:
		return append(b, byte(TCommit)), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode op kind %v", op.Kind)
	}
}

// WriteMsg frames and writes m, returning the bytes written.
func WriteMsg(w io.Writer, m Msg) (int, error) {
	frame, err := Encode(m)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// Decode parses one payload (the frame with its length prefix already
// stripped). It accepts only v1 and v2 frames; a transport that must
// also accept stream-tagged v3 frames uses DecodeFrame.
func Decode(payload []byte) (Msg, error) {
	if len(payload) < 2 {
		return nil, protoErr("payload of %d bytes", len(payload))
	}
	switch payload[0] {
	case Version:
		if Type(payload[1]) == TBeginProgram {
			return nil, protoErr("%s requires a version-%d frame", TBeginProgram, Version2)
		}
	case Version2:
		if Type(payload[1]) != TBeginProgram {
			return nil, protoErr("version-%d frame carries %s, only %s allowed", Version2, Type(payload[1]), TBeginProgram)
		}
	default:
		return nil, protoErr("version %d, want %d or %d", payload[0], Version, Version2)
	}
	d := &decoder{b: payload[2:]}
	m, err := decodeMsg(Type(payload[1]), d)
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeFrame parses one payload of any protocol version: v1/v2 frames
// decode exactly as Decode does (Tagged false, Stream zero), v3 frames
// additionally yield their stream tag.
func DecodeFrame(payload []byte) (Frame, error) {
	if len(payload) < 1 {
		return Frame{}, protoErr("payload of %d bytes", len(payload))
	}
	switch payload[0] {
	case Version, Version2:
		m, err := Decode(payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Msg: m}, nil
	case Version3:
	default:
		return Frame{}, protoErr("version %d, want %d, %d or %d",
			payload[0], Version, Version2, Version3)
	}
	d := &decoder{b: payload[1:]}
	stream, err := d.uvarint()
	if err != nil {
		return Frame{}, err
	}
	if stream > MaxStream {
		return Frame{}, protoErr("stream %d exceeds %d", stream, uint64(MaxStream))
	}
	tag, err := d.byte()
	if err != nil {
		return Frame{}, err
	}
	if !TaggableType(Type(tag)) {
		return Frame{}, protoErr("%s cannot be stream-tagged", Type(tag))
	}
	m, err := decodeMsg(Type(tag), d)
	if err != nil {
		return Frame{}, err
	}
	if err := d.done(); err != nil {
		return Frame{}, err
	}
	return Frame{Stream: uint32(stream), Tagged: true, Msg: m}, nil
}

// decodeMsg decodes the fields of one message of type t from d (the
// version prefix and type byte already consumed). Shared by the v1/v2
// and v3 framings.
func decodeMsg(t Type, d *decoder) (Msg, error) {
	var m Msg
	var err error
	switch t {
	case TBegin:
		var x Begin
		if x.Name, err = d.string(); err != nil {
			return nil, err
		}
		if x.Locals, err = d.locals(MaxLocals); err != nil {
			return nil, err
		}
		m = x
	case TLock:
		var x Lock
		mode, err := d.byte()
		if err != nil {
			return nil, err
		}
		if mode > 1 {
			return nil, protoErr("unknown lock mode %d", mode)
		}
		x.Exclusive = mode == 1
		if x.Entity, err = d.name(); err != nil {
			return nil, err
		}
		m = x
	case TUnlock:
		var x Unlock
		if x.Entity, err = d.name(); err != nil {
			return nil, err
		}
		m = x
	case TRead:
		var x Read
		if x.Entity, err = d.name(); err != nil {
			return nil, err
		}
		if x.Local, err = d.name(); err != nil {
			return nil, err
		}
		m = x
	case TWrite:
		var x Write
		if x.Entity, err = d.name(); err != nil {
			return nil, err
		}
		budget := MaxExprNodes
		if x.Expr, err = d.expr(0, &budget); err != nil {
			return nil, err
		}
		m = x
	case TCompute:
		var x Compute
		if x.Local, err = d.name(); err != nil {
			return nil, err
		}
		budget := MaxExprNodes
		if x.Expr, err = d.expr(0, &budget); err != nil {
			return nil, err
		}
		m = x
	case TLastLock:
		m = LastLock{}
	case TCommit:
		m = Commit{}
	case TStats:
		m = Stats{}
	case TBeginProgram:
		var x BeginProgram
		if x.Name, err = d.string(); err != nil {
			return nil, err
		}
		if x.Locals, err = d.locals(MaxLocals); err != nil {
			return nil, err
		}
		if x.Ops, err = d.ops(MaxOps); err != nil {
			return nil, err
		}
		m = x
	case TCommitted:
		var x Committed
		if x.Txn, err = d.varint(); err != nil {
			return nil, err
		}
		if x.Locals, err = d.locals(MaxLocals); err != nil {
			return nil, err
		}
		for _, p := range []*int64{
			&x.Stats.OpsExecuted, &x.Stats.OpsLost, &x.Stats.Rollbacks,
			&x.Stats.Restarts, &x.Stats.Waits,
		} {
			if *p, err = d.varint(); err != nil {
				return nil, err
			}
		}
		m = x
	case TRolledBack:
		var x RolledBack
		for _, p := range []*int64{&x.Txn, &x.ToLockState, &x.FromState, &x.ToState, &x.Lost} {
			if *p, err = d.varint(); err != nil {
				return nil, err
			}
		}
		m = x
	case TError:
		var x Error
		code, err := d.byte()
		if err != nil {
			return nil, err
		}
		x.Code = ErrCode(code)
		if x.Msg, err = d.string(); err != nil {
			return nil, err
		}
		m = x
	case TStatsReply:
		var x StatsReply
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > MaxCounters {
			return nil, protoErr("%d counters exceeds %d", n, MaxCounters)
		}
		if n > 0 {
			x.Counters = make([]Counter, 0, n)
		}
		for i := uint64(0); i < n; i++ {
			var c Counter
			if c.Name, err = d.string(); err != nil {
				return nil, err
			}
			if c.Val, err = d.varint(); err != nil {
				return nil, err
			}
			x.Counters = append(x.Counters, c)
		}
		m = x
	default:
		return nil, protoErr("unknown message type %d", byte(t))
	}
	return m, nil
}

// ReadMsg reads one frame from r and decodes it, returning the message
// and the total bytes consumed. I/O failures are returned as-is;
// malformed content is reported wrapped in ErrProtocol.
func ReadMsg(r io.Reader) (Msg, int, error) {
	return (&Reader{r: r}).ReadMsg()
}

// ReadFrame reads one frame of any protocol version from r and decodes
// it — the demultiplexing transport's counterpart of ReadMsg. I/O
// failures are returned as-is; malformed content is reported wrapped in
// ErrProtocol.
func ReadFrame(r io.Reader) (Frame, int, error) {
	return (&Reader{r: r}).ReadFrame()
}

// Reader reads and decodes frames from one connection, reusing its
// payload buffer from frame to frame: no decoded message aliases the
// payload (every string is copied), so the buffer is free again as soon
// as a frame is decoded. A Reader is not safe for concurrent use; a
// connection's single read loop owns it.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// ReadMsg is the package-level ReadMsg over the Reader's buffer.
func (rd *Reader) ReadMsg() (Msg, int, error) {
	defer rd.release()
	payload, n, err := rd.readPayload()
	if err != nil {
		return nil, n, err
	}
	m, err := Decode(payload)
	return m, n, err
}

// ReadFrame is the package-level ReadFrame over the Reader's buffer.
func (rd *Reader) ReadFrame() (Frame, int, error) {
	defer rd.release()
	payload, n, err := rd.readPayload()
	if err != nil {
		return Frame{}, n, err
	}
	f, err := DecodeFrame(payload)
	return f, n, err
}

// Payload buffer bounds: a buffer starts at minReadChunk, and one grown
// past maxKeptBuf is dropped after its frame.
const (
	minReadChunk = 4 << 10
	maxKeptBuf   = 64 << 10
)

// readPayload reads one frame's length prefix and payload, returning
// the payload (valid until the next read) and the bytes consumed. The
// buffer grows only as payload bytes arrive — it at most doubles once
// the bytes it already holds are filled, never jumping to the
// announced length — so a peer that announces MaxFrame and stalls pins
// a few KiB, not a MiB, and memory stays within twice what was sent.
func (rd *Reader) readPayload() ([]byte, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, 4, protoErr("frame of %d bytes exceeds %d", n, MaxFrame)
	}
	buf := rd.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(cap(buf), minReadChunk), n-len(buf)))
		}
		end := min(cap(buf), n)
		m, err := io.ReadFull(rd.r, buf[len(buf):end])
		buf = buf[:len(buf)+m]
		if err != nil {
			rd.buf = buf
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, 4, err
		}
	}
	rd.buf = buf
	return buf, 4 + n, nil
}

// release keeps the payload buffer for the next frame unless a large
// (or large truncated) frame grew it, so an idle connection holds at
// most maxKeptBuf.
func (rd *Reader) release() {
	if cap(rd.buf) > maxKeptBuf {
		rd.buf = nil
	}
}

// --- program <-> message translation ---

// ProgramMsgs translates a transaction program into its protocol
// message sequence: Begin, one message per operation, Commit. Locals
// are emitted in sorted order so equal programs encode identically.
func ProgramMsgs(p *txn.Program) ([]Msg, error) {
	locals := make([]LocalDecl, 0, len(p.Locals))
	for name, v := range p.Locals {
		locals = append(locals, LocalDecl{Name: name, Val: v})
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].Name < locals[j].Name })
	out := []Msg{Begin{Name: p.Name, Locals: locals}}
	for _, op := range p.Ops {
		switch op.Kind {
		case txn.OpLockS:
			out = append(out, Lock{Entity: op.Entity})
		case txn.OpLockX:
			out = append(out, Lock{Entity: op.Entity, Exclusive: true})
		case txn.OpUnlock:
			out = append(out, Unlock{Entity: op.Entity})
		case txn.OpRead:
			out = append(out, Read{Entity: op.Entity, Local: op.Local})
		case txn.OpWrite:
			out = append(out, Write{Entity: op.Entity, Expr: op.Expr})
		case txn.OpCompute:
			out = append(out, Compute{Local: op.Local, Expr: op.Expr})
		case txn.OpDeclareLastLock:
			out = append(out, LastLock{})
		case txn.OpCommit:
			out = append(out, Commit{})
		default:
			return nil, fmt.Errorf("wire: cannot encode op kind %v", op.Kind)
		}
	}
	return out, nil
}

// ProgramFrame translates a transaction program into the single v2
// BeginProgram frame — the batched alternative to ProgramMsgs. Locals
// are emitted in sorted order so equal programs encode identically.
func ProgramFrame(p *txn.Program) (BeginProgram, error) {
	if len(p.Ops) > MaxOps {
		return BeginProgram{}, fmt.Errorf("wire: program of %d ops exceeds %d", len(p.Ops), MaxOps)
	}
	locals := make([]LocalDecl, 0, len(p.Locals))
	for name, v := range p.Locals {
		locals = append(locals, LocalDecl{Name: name, Val: v})
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].Name < locals[j].Name })
	for _, op := range p.Ops {
		switch op.Kind {
		case txn.OpLockS, txn.OpLockX, txn.OpUnlock, txn.OpRead, txn.OpWrite,
			txn.OpCompute, txn.OpDeclareLastLock, txn.OpCommit:
		default:
			return BeginProgram{}, fmt.Errorf("wire: cannot encode op kind %v", op.Kind)
		}
	}
	return BeginProgram{Name: p.Name, Locals: locals, Ops: p.Ops}, nil
}

// Program validates and returns the shipped program — the whole-frame
// equivalent of feeding an Assembler and calling its Program. The same
// §2 static rules apply; a missing trailing Commit is appended exactly
// as txn.Builder.Build would.
func (bp BeginProgram) Program() (*txn.Program, error) {
	c, err := bp.Checked()
	return c.Program(), err
}

// Checked is Program that also returns the program's analysis from the
// same validation pass, ready for core.Engine.RegisterChecked.
func (bp BeginProgram) Checked() (txn.Checked, error) {
	if len(bp.Locals) > MaxLocals {
		return txn.Checked{}, protoErr("%d locals exceeds %d", len(bp.Locals), MaxLocals)
	}
	if len(bp.Ops) > MaxOps {
		return txn.Checked{}, protoErr("program exceeds %d operations", MaxOps)
	}
	p := &txn.Program{Name: bp.Name, Locals: make(map[string]int64, len(bp.Locals))}
	for _, l := range bp.Locals {
		if _, dup := p.Locals[l.Name]; dup {
			return txn.Checked{}, fmt.Errorf("txn %s: local %q declared twice", bp.Name, l.Name)
		}
		p.Locals[l.Name] = l.Val
	}
	// The shipped ops become the program's own: neither side mutates
	// them. Only a program without its trailing Commit is copied, so
	// the appended Commit never lands in bp's backing array.
	p.Ops = bp.Ops
	if n := len(p.Ops); n == 0 || p.Ops[n-1].Kind != txn.OpCommit {
		p.Ops = append(p.Ops[:n:n], txn.Op{Kind: txn.OpCommit})
	}
	return txn.Check(p)
}

// Assembler rebuilds a transaction program from its protocol messages.
// Feed returns done=true when Commit arrives; Checked then returns the
// validated program.
type Assembler struct {
	b    *txn.Builder
	ops  int
	done bool
	err  error
}

// NewAssembler starts assembling from a Begin message.
func NewAssembler(b Begin) *Assembler {
	a := &Assembler{b: txn.NewProgram(b.Name)}
	if len(b.Locals) > MaxLocals {
		a.err = protoErr("%d locals exceeds %d", len(b.Locals), MaxLocals)
		return a
	}
	for _, l := range b.Locals {
		a.b.Local(l.Name, l.Val)
	}
	return a
}

// Feed consumes one operation message. It reports done=true on Commit.
func (a *Assembler) Feed(m Msg) (done bool, err error) {
	if a.err != nil {
		return false, a.err
	}
	if a.done {
		return true, protoErr("operation after commit")
	}
	a.ops++
	if a.ops > MaxOps {
		a.err = protoErr("program exceeds %d operations", MaxOps)
		return false, a.err
	}
	switch x := m.(type) {
	case Lock:
		if x.Exclusive {
			a.b.LockX(x.Entity)
		} else {
			a.b.LockS(x.Entity)
		}
	case Unlock:
		a.b.Unlock(x.Entity)
	case Read:
		a.b.Read(x.Entity, x.Local)
	case Write:
		a.b.Write(x.Entity, x.Expr)
	case Compute:
		a.b.Compute(x.Local, x.Expr)
	case LastLock:
		a.b.DeclareLastLock()
	case Commit:
		a.done = true
		return true, nil
	default:
		a.err = protoErr("unexpected %s inside transaction", m.Type())
		return false, a.err
	}
	return false, nil
}

// Checked validates the assembled program and returns it with its
// analysis from that one validation pass, ready for
// core.Engine.RegisterChecked. It fails before Commit has been fed or
// when the program violates the §2 static rules.
func (a *Assembler) Checked() (txn.Checked, error) {
	if a.err != nil {
		return txn.Checked{}, a.err
	}
	if !a.done {
		return txn.Checked{}, protoErr("program not committed")
	}
	return a.b.BuildChecked()
}
