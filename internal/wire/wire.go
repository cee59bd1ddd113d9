// Package wire defines the binary protocol spoken between the network
// transaction service (internal/server) and its clients
// (internal/client).
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload: the version byte (Version3), the frame's stream ID as a
// uvarint, a message-type byte, then the message body encoded with
// varints and length-prefixed strings. There is one framing and no
// handshake; a frame carrying any other version byte is a protocol
// error.
//
// A client ships each transaction as one BeginProgram frame — name,
// local declarations and the complete operation list — on a stream ID
// of its choosing, so one connection carries many concurrent
// transactions. The server registers and executes the program to
// completion, re-executing it internally after every §2 rollback, and
// answers on the same stream with zero or more RolledBack
// notifications followed by exactly one Committed or Error frame. Stats
// is answered on its stream with a StatsReply counter snapshot. The
// client never talks to the server in the middle of a transaction.
//
// Stream 0 is reserved for the connection itself: clients never open
// it, and the server uses it for connection-level replies — the Error
// naming a malformed frame before it closes the connection, or the
// CodeBusy refusal of a connection it cannot serve.
//
// Everything decoded from the network is bounds-checked: frame size,
// string length, op and local counts, and expression size/depth all
// have hard limits, so a malicious or corrupted peer cannot force large
// allocations or deep recursion (see the fuzz tests). The encoder
// enforces the same limits, so a well-behaved peer never sends a frame
// the other side must reject.
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

// Version3 is the version byte every frame starts with; a payload
// with any other version byte is refused.
const Version3 byte = 3

// Limits enforced during decoding, and by the encoder.
const (
	// MaxFrame is the largest accepted payload, in bytes.
	MaxFrame = 1 << 20
	// MaxStream bounds stream IDs (fits uint32 with room to spare;
	// a malicious peer cannot force sparse-map blowups past it).
	MaxStream = 1<<32 - 1
	// MaxString bounds every decoded string (names, error messages).
	MaxString = 1 << 10
	// MaxLocals bounds local declarations per BeginProgram/Committed.
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
	TStats        Type = 9
	TBeginProgram Type = 10
	TCommitted    Type = 16
	TRolledBack   Type = 17
	TError        Type = 18
	TStatsReply   Type = 19
)

// Operation tags inside a BeginProgram body. The values are part of
// the wire format, which peers built from earlier releases share: they
// must not change.
const (
	opLock     byte = 2
	opUnlock   byte = 3
	opRead     byte = 4
	opWrite    byte = 5
	opCompute  byte = 6
	opLastLock byte = 7
	opCommit   byte = 8
)

func (t Type) String() string {
	switch t {
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
	// the server does not accept. Not retryable.
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

// BeginProgram is the whole-transaction frame: name, local
// declarations and the complete operation list in one message, so a
// transaction costs one frame read and one decode. Each op is a tag
// byte followed by its fields.
type BeginProgram struct {
	Name   string
	Locals []LocalDecl
	Ops    []txn.Op
}

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

// Error reports a failed request. A message longer than MaxString is
// truncated to MaxString bytes when encoded.
type Error struct {
	Code ErrCode
	Msg  string
}

// StatsReply carries a counter snapshot.
type StatsReply struct{ Counters []Counter }

// Type implementations.

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

// ErrProtocol wraps every decode failure, and every encode failure
// caused by a message the decoder would refuse, so transports can
// distinguish protocol violations from I/O errors.
var ErrProtocol = errors.New("wire: protocol error")

func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// --- encoder-side limits ---

func checkString(what, s string) error {
	if len(s) > MaxString {
		return protoErr("%s of %d bytes exceeds %d", what, len(s), MaxString)
	}
	return nil
}

func checkLocals(locals []LocalDecl) error {
	if len(locals) > MaxLocals {
		return protoErr("%d locals exceeds %d", len(locals), MaxLocals)
	}
	for _, l := range locals {
		if err := checkString("local name", l.Name); err != nil {
			return err
		}
	}
	return nil
}

// checkExpr applies the decoder's per-expression node budget and depth
// bound (see decoder.expr) to e.
func checkExpr(e value.Expr, depth int, budget *int) error {
	if depth > MaxExprDepth {
		return protoErr("expression deeper than %d", MaxExprDepth)
	}
	*budget--
	if *budget < 0 {
		return protoErr("expression larger than %d nodes", MaxExprNodes)
	}
	switch x := e.(type) {
	case value.Const:
		return nil
	case value.Local:
		return checkString("local name", string(x))
	case value.Binary:
		if x.Op < 0 || x.Op > value.OpMax {
			return protoErr("unknown operator %d", x.Op)
		}
		if err := checkExpr(x.L, depth+1, budget); err != nil {
			return err
		}
		return checkExpr(x.R, depth+1, budget)
	default:
		return protoErr("cannot encode expression type %T", e)
	}
}

// check reports the first decoder limit bp exceeds.
func (bp BeginProgram) check() error {
	if err := checkString("program name", bp.Name); err != nil {
		return err
	}
	if err := checkLocals(bp.Locals); err != nil {
		return err
	}
	if len(bp.Ops) > MaxOps {
		return protoErr("program of %d ops exceeds %d", len(bp.Ops), MaxOps)
	}
	for i := range bp.Ops {
		op := &bp.Ops[i]
		var err error
		switch op.Kind {
		case txn.OpLockS, txn.OpLockX, txn.OpUnlock:
			err = checkString("entity name", op.Entity)
		case txn.OpRead:
			if err = checkString("entity name", op.Entity); err == nil {
				err = checkString("local name", op.Local)
			}
		case txn.OpWrite, txn.OpCompute:
			name, what := op.Entity, "entity name"
			if op.Kind == txn.OpCompute {
				name, what = op.Local, "local name"
			}
			if err = checkString(what, name); err == nil {
				budget := MaxExprNodes
				err = checkExpr(op.Expr, 0, &budget)
			}
		case txn.OpDeclareLastLock, txn.OpCommit:
		default:
			err = protoErr("cannot encode op kind %v", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// check reports the first decoder limit m exceeds. Error needs no
// check: its message is truncated instead.
func check(m Msg) error {
	switch x := m.(type) {
	case BeginProgram:
		return x.check()
	case Committed:
		return checkLocals(x.Locals)
	case StatsReply:
		if len(x.Counters) > MaxCounters {
			return protoErr("%d counters exceeds %d", len(x.Counters), MaxCounters)
		}
		for _, c := range x.Counters {
			if err := checkString("counter name", c.Name); err != nil {
				return err
			}
		}
	}
	return nil
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

// appendExpr encodes an expression already checked by checkExpr.
func appendExpr(b []byte, e value.Expr) []byte {
	switch x := e.(type) {
	case value.Const:
		b = append(b, 0)
		return appendVarint(b, int64(x))
	case value.Local:
		b = append(b, 1)
		return appendString(b, string(x))
	default:
		bin := e.(value.Binary)
		b = appendExpr(append(b, 2, byte(bin.Op)), bin.L)
		return appendExpr(b, bin.R)
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

// ops decodes a BeginProgram operation list. Each operation's
// expression gets its own MaxExprNodes budget.
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
		switch tag {
		case opLock:
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
		case opUnlock:
			op.Kind = txn.OpUnlock
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
		case opRead:
			op.Kind = txn.OpRead
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
			if op.Local, err = d.name(); err != nil {
				return nil, err
			}
		case opWrite:
			op.Kind = txn.OpWrite
			if op.Entity, err = d.name(); err != nil {
				return nil, err
			}
			budget := MaxExprNodes
			if op.Expr, err = d.expr(0, &budget); err != nil {
				return nil, err
			}
		case opCompute:
			op.Kind = txn.OpCompute
			if op.Local, err = d.name(); err != nil {
				return nil, err
			}
			budget := MaxExprNodes
			if op.Expr, err = d.expr(0, &budget); err != nil {
				return nil, err
			}
		case opLastLock:
			op.Kind = txn.OpDeclareLastLock
		case opCommit:
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

// --- frame codec ---

// Frame is one decoded frame: the stream it is addressed to and its
// message.
type Frame struct {
	Stream uint32
	Msg    Msg
}

// AppendTagged appends m's complete frame (length prefix included),
// addressed to stream, to dst and returns the extended slice. A
// batching writer encodes many frames into one reused buffer and issues
// a single write. It fails, with an error wrapping ErrProtocol, for a
// message the decoder would refuse.
func AppendTagged(dst []byte, stream uint32, m Msg) ([]byte, error) {
	if err := check(m); err != nil {
		return nil, err
	}
	start := len(dst)
	body := appendUvarint(append(dst, 0, 0, 0, 0, Version3), uint64(stream))
	body, err := appendMsgBody(body, m)
	if err != nil {
		return nil, err
	}
	return finishFrame(body, start)
}

// AppendMsg appends m's frame on stream 0, the connection's own stream
// (see the package comment).
func AppendMsg(dst []byte, m Msg) ([]byte, error) {
	return AppendTagged(dst, 0, m)
}

// EncodeTagged serializes m into a complete frame addressed to stream.
func EncodeTagged(stream uint32, m Msg) ([]byte, error) {
	return AppendTagged(nil, stream, m)
}

// finishFrame bounds-checks the payload appended since start and patches
// in its 4-byte length prefix.
func finishFrame(body []byte, start int) ([]byte, error) {
	payload := len(body) - start - 4
	if payload > MaxFrame {
		return nil, protoErr("frame of %d bytes exceeds %d", payload, MaxFrame)
	}
	binary.BigEndian.PutUint32(body[start:start+4], uint32(payload))
	return body, nil
}

// appendMsgBody appends m's type byte and field encoding (everything
// after the stream ID) to dst. m has passed check.
func appendMsgBody(dst []byte, m Msg) ([]byte, error) {
	body := append(dst, byte(m.Type()))
	switch x := m.(type) {
	case Stats:
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
			body = appendOp(body, op)
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
		body = appendString(body, x.Msg[:min(len(x.Msg), MaxString)])
	case StatsReply:
		body = appendUvarint(body, uint64(len(x.Counters)))
		for _, c := range x.Counters {
			body = appendString(body, c.Name)
			body = appendVarint(body, c.Val)
		}
	default:
		return nil, protoErr("cannot encode message type %T", m)
	}
	return body, nil
}

// appendOp encodes one checked program operation for a BeginProgram
// body: its tag byte, then its fields.
func appendOp(b []byte, op txn.Op) []byte {
	switch op.Kind {
	case txn.OpLockS:
		return appendString(append(b, opLock, 0), op.Entity)
	case txn.OpLockX:
		return appendString(append(b, opLock, 1), op.Entity)
	case txn.OpUnlock:
		return appendString(append(b, opUnlock), op.Entity)
	case txn.OpRead:
		return appendString(appendString(append(b, opRead), op.Entity), op.Local)
	case txn.OpWrite:
		return appendExpr(appendString(append(b, opWrite), op.Entity), op.Expr)
	case txn.OpCompute:
		return appendExpr(appendString(append(b, opCompute), op.Local), op.Expr)
	case txn.OpDeclareLastLock:
		return append(b, opLastLock)
	default: // txn.OpCommit
		return append(b, opCommit)
	}
}

// DecodeFrame parses one payload (the frame with its length prefix
// already stripped).
func DecodeFrame(payload []byte) (Frame, error) {
	if len(payload) < 1 {
		return Frame{}, protoErr("payload of %d bytes", len(payload))
	}
	if payload[0] != Version3 {
		return Frame{}, protoErr("version %d, want %d", payload[0], Version3)
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
	m, err := decodeMsg(Type(tag), d)
	if err != nil {
		return Frame{}, err
	}
	if err := d.done(); err != nil {
		return Frame{}, err
	}
	return Frame{Stream: uint32(stream), Msg: m}, nil
}

// decodeMsg decodes the fields of one message of type t from d (the
// version, stream ID and type byte already consumed).
func decodeMsg(t Type, d *decoder) (Msg, error) {
	var m Msg
	var err error
	switch t {
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

// ReadFrame reads one frame from r and decodes it. I/O failures are
// returned as-is; malformed content is reported wrapped in ErrProtocol.
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

// --- program <-> frame translation ---

// ProgramFrame translates a transaction program into its BeginProgram
// frame. Locals are emitted in sorted order so equal programs encode
// identically. A program the decoder would refuse — a name longer than
// MaxString, too many locals or ops, an expression over its node or
// depth budget — fails here with an error wrapping ErrProtocol, before
// anything is sent.
func ProgramFrame(p *txn.Program) (BeginProgram, error) {
	locals := make([]LocalDecl, 0, len(p.Locals))
	for name, v := range p.Locals {
		locals = append(locals, LocalDecl{Name: name, Val: v})
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].Name < locals[j].Name })
	bp := BeginProgram{Name: p.Name, Locals: locals, Ops: p.Ops}
	if err := bp.check(); err != nil {
		return BeginProgram{}, err
	}
	return bp, nil
}

// Program validates and returns the shipped program. The §2 static
// rules apply; a missing trailing Commit is appended exactly as
// txn.Builder.Build would.
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
