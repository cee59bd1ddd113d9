package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"partialrollback/internal/exec"
	"partialrollback/internal/obs"
	"partialrollback/internal/sim"
	"partialrollback/internal/wire"
)

// serveScript reads one BeginProgram frame per reply set from conn
// (checking each carries a valid program on a non-zero stream) and
// answers with the set's messages on that frame's stream, then closes
// the connection.
func serveScript(t *testing.T, conn net.Conn, replySets ...[]wire.Msg) {
	t.Helper()
	defer conn.Close()
	rd := wire.NewReader(conn)
	for _, replies := range replySets {
		f, _, err := rd.ReadFrame()
		if err != nil {
			return
		}
		bp, ok := f.Msg.(wire.BeginProgram)
		if !ok || f.Stream == 0 {
			t.Errorf("got %#v, want a BeginProgram on a non-zero stream", f)
			return
		}
		if _, err := bp.Checked(); err != nil {
			t.Errorf("shipped program invalid: %v", err)
		}
		var out []byte
		for _, r := range replies {
			if out, err = wire.AppendTagged(out, f.Stream, r); err != nil {
				t.Errorf("encode reply: %v", err)
				return
			}
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func committedReply() wire.Committed {
	return wire.Committed{
		Txn:    7,
		Locals: []wire.LocalDecl{{Name: "x", Val: 41}},
		Stats:  wire.TxnOutcome{OpsExecuted: 5},
	}
}

// pipeDialer returns a Dial hook whose nth call is wired to the nth
// script.
func pipeDialer(t *testing.T, scripts ...func(net.Conn)) func() (net.Conn, error) {
	n := 0
	return func() (net.Conn, error) {
		if n >= len(scripts) {
			t.Fatalf("unexpected dial #%d", n+1)
		}
		cc, sc := net.Pipe()
		go scripts[n](sc)
		n++
		return cc, nil
	}
}

func TestRunRetriesRolledBack(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	var notified int
	// Retryable refusals keep the connection, so one dial serves all
	// three attempts — this also covers connection reuse.
	cfg := testMuxConfig(pipeDialer(t, func(conn net.Conn) {
		serveScript(t, conn,
			[]wire.Msg{
				wire.RolledBack{Txn: 7, FromState: 2, ToState: 0, Lost: 2},
				wire.Error{Code: wire.CodeRolledBack, Msg: "deadline"},
			},
			[]wire.Msg{
				wire.RolledBack{Txn: 9, FromState: 1, ToState: 0, Lost: 1},
				wire.Error{Code: wire.CodeRolledBack, Msg: "deadline"},
			},
			[]wire.Msg{committedReply()},
		)
	}))
	cfg.OnRollback = func(wire.RolledBack) { notified++ }
	c := NewMux(cfg)
	defer c.Close()
	res, err := c.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Attempts)
	}
	if len(res.RolledBack) != 2 || notified != 2 {
		t.Errorf("rollback notifications = %d (callback %d), want 2", len(res.RolledBack), notified)
	}
	if res.Locals["x"] != 41 || res.Outcome.OpsExecuted != 5 {
		t.Errorf("result %+v", res)
	}
}

func TestRunRedialsAfterTransportFailure(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	cfg := testMuxConfig(pipeDialer(t,
		func(conn net.Conn) { conn.Close() }, // dies immediately
		func(conn net.Conn) { serveScript(t, conn, []wire.Msg{committedReply()}) },
	))
	c := NewMux(cfg)
	defer c.Close()
	res, err := c.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
}

func TestRunStopsOnTerminalError(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	dials := 0
	cfg := testMuxConfig(func() (net.Conn, error) {
		dials++
		cc, sc := net.Pipe()
		go serveScript(t, sc, []wire.Msg{wire.Error{Code: wire.CodeBadRequest, Msg: "no such entity"}})
		return cc, nil
	})
	c := NewMux(cfg)
	defer c.Close()
	_, err := c.Run(context.Background(), prog)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
		t.Fatalf("err = %v, want BadRequest ServerError", err)
	}
	if errors.Is(err, ErrRolledBack) {
		t.Error("terminal error must not match ErrRolledBack")
	}
	if dials != 1 {
		t.Errorf("dials = %d, want 1 (no retry)", dials)
	}
}

func TestErrRolledBackMatching(t *testing.T) {
	for _, tc := range []struct {
		code wire.ErrCode
		want bool
	}{
		{wire.CodeRolledBack, true},
		{wire.CodeShutdown, true},
		{wire.CodeBusy, true},
		{wire.CodeBadRequest, false},
		{wire.CodeInternal, false},
	} {
		err := error(&ServerError{Code: tc.code})
		if got := errors.Is(err, ErrRolledBack); got != tc.want {
			t.Errorf("errors.Is(%s, ErrRolledBack) = %v, want %v", tc.code, got, tc.want)
		}
		if got := Retryable(err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.code, got, tc.want)
		}
	}
	if !Retryable(errors.New("some transport failure")) {
		t.Error("transport errors must be retryable")
	}
	if Retryable(wire.ErrProtocol) {
		t.Error("protocol violations must not be retryable")
	}
}

// TestRunCancelDuringBackoff cancels the context while Run sleeps
// between attempts and checks it returns promptly with the context
// error instead of finishing the (enormous) backoff delay.
func TestRunCancelDuringBackoff(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	dialed := make(chan struct{}, 1)
	cfg := MuxConfig{
		Dial: func() (net.Conn, error) {
			select {
			case dialed <- struct{}{}:
			default:
			}
			return nil, errors.New("refused") // retryable transport failure
		},
		MaxAttempts: 8,
		// A delay far beyond the test's patience: only ctx can end it.
		Backoff: exec.Backoff{Base: time.Hour, Cap: time.Hour},
	}
	c := NewMux(cfg)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, prog)
		done <- err
	}()
	<-dialed // first attempt failed; Run is now inside the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel; backoff sleep ignores ctx")
	}
}

func TestRunMetrics(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	m := &obs.ClientMetrics{}
	cfg := testMuxConfig(pipeDialer(t, func(conn net.Conn) {
		serveScript(t, conn,
			[]wire.Msg{
				wire.RolledBack{Txn: 7, FromState: 2, ToState: 0, Lost: 2},
				wire.Error{Code: wire.CodeRolledBack, Msg: "deadline"},
			},
			[]wire.Msg{committedReply()},
		)
	}))
	cfg.Metrics = m
	c := NewMux(cfg)
	defer c.Close()
	if _, err := c.Run(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	if got := m.Attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if got := m.Retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := m.Commits.Load(); got != 1 {
		t.Errorf("commits = %d, want 1", got)
	}
	if got := m.RollbacksObserved.Load(); got != 1 {
		t.Errorf("rollbacks observed = %d, want 1", got)
	}
	if got := m.Failures.Load(); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}

	// A terminal failure counts once and does not count a commit.
	cfg2 := testMuxConfig(pipeDialer(t, func(conn net.Conn) {
		serveScript(t, conn, []wire.Msg{wire.Error{Code: wire.CodeBadRequest, Msg: "bad"}})
	}))
	cfg2.Metrics = m
	c2 := NewMux(cfg2)
	defer c2.Close()
	if _, err := c2.Run(context.Background(), prog); err == nil {
		t.Fatal("want terminal error")
	}
	if got := m.Failures.Load(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if got := m.Commits.Load(); got != 1 {
		t.Errorf("commits after failure = %d, want 1", got)
	}
}

func TestStats(t *testing.T) {
	cfg := testMuxConfig(func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go func() {
			defer sc.Close()
			f, _, err := wire.ReadFrame(sc)
			if err != nil {
				return
			}
			if _, ok := f.Msg.(wire.Stats); !ok || f.Stream == 0 {
				t.Errorf("got %#v, want Stats on a non-zero stream", f)
				return
			}
			frame, _ := wire.EncodeTagged(f.Stream, wire.StatsReply{Counters: []wire.Counter{{Name: "commits", Val: 3}}})
			sc.Write(frame)
		}()
		return cc, nil
	})
	c := NewMux(cfg)
	defer c.Close()
	counters, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(counters) != 1 || counters[0].Name != "commits" || counters[0].Val != 3 {
		t.Errorf("counters = %+v", counters)
	}
}
