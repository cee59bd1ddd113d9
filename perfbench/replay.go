package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

// replaySample bounds how many sent programs the replay times.
const replaySample = 20000

// timedEngine wraps an engine and times the calls exec makes into it.
type timedEngine struct {
	core.Engine
	regNS  int64
	stepNS int64
	ops    int64
}

func (e *timedEngine) Register(p *txn.Program) (txn.ID, error) {
	t0 := time.Now()
	id, err := e.Engine.Register(p)
	e.regNS += int64(time.Since(t0))
	return id, err
}

func (e *timedEngine) StepBurst(id txn.ID, n int) (core.StepResult, int, error) {
	t0 := time.Now()
	res, k, err := e.Engine.StepBurst(id, n)
	e.stepNS += int64(time.Since(t0))
	e.ops += int64(k)
	return res, k, err
}

// replayCosts are per-program means of the calls the server makes
// internally, measured by replaying the sent programs one at a time
// through the same public functions.
type replayCosts struct {
	n           int
	encodeNS    float64 // request and reply frame encode
	decodeNS    float64 // request and reply frame decode
	programNS   float64 // BeginProgram.Program: the shipped program validated
	validateNS  float64 // txn.ValidateAnalyze alone
	registerNS  float64 // core.Engine.Register (validates again)
	stepNSPerOp float64
	repeatShare float64 // share of all sent programs repeating earlier bytes
}

// replay re-runs the sent programs through the wire codec, validation
// and a fresh uncontended engine, recording one span tree per program.
// The repeat share covers every program; the timings cover the first
// replaySample.
func replay(w *workload, sent []spec, nm *names, tr *tracer) (replayCosts, []span, *ledger, error) {
	var rc replayCosts
	seen := make(map[uint64]struct{}, len(sent))
	var buf []byte
	repeats := 0
	for i := range sent {
		frame, err := wire.ProgramFrame(w.program(&sent[i], nm))
		if err != nil {
			return rc, nil, nil, err
		}
		if buf, err = wire.AppendMsg(buf[:0], frame); err != nil {
			return rc, nil, nil, err
		}
		h := fnv.New64a()
		h.Write(buf)
		k := h.Sum64()
		if _, dup := seen[k]; dup {
			repeats++
		}
		seen[k] = struct{}{}
	}
	rc.repeatShare = ratio(float64(repeats), float64(len(sent)))

	store := entity.NewUniformStore("e", w.entities, initValue)
	eng := &timedEngine{Engine: core.New(core.Config{Store: store, Strategy: core.MCS, Policy: deadlock.OrderedMinCost{}})}
	wake := make(chan struct{})
	led := newLedger()
	var all, local []span
	if len(sent) > replaySample {
		sent = sent[:replaySample]
	}
	var encNS, decNS, progNS, valNS int64
	t := tr.now
	child := func(name string, start int64) int64 {
		end := t()
		local = append(local, span{name: name, start: start, end: end, parent: 0})
		return end - start
	}
	for i := range sent {
		p := w.program(&sent[i], nm)
		local = append(local[:0], span{name: "replay.txn", start: t(), parent: -1})

		s := t()
		frame, err := wire.ProgramFrame(p)
		if err == nil {
			buf, err = wire.AppendTagged(buf[:0], 1, frame)
		}
		if err != nil {
			return rc, nil, nil, err
		}
		encNS += child("wire.encode", s)

		s = t()
		f, err := wire.DecodeFrame(buf[4:])
		if err != nil {
			return rc, nil, nil, err
		}
		decNS += child("wire.decode", s)

		s = t()
		bp, ok := f.Msg.(wire.BeginProgram)
		if !ok {
			return rc, nil, nil, fmt.Errorf("replay: decoded %s, want BeginProgram", f.Msg.Type())
		}
		prog, err := bp.Program()
		if err != nil {
			return rc, nil, nil, err
		}
		progNS += child("txn.program", s)

		s = t()
		if _, err := txn.ValidateAnalyze(prog); err != nil {
			return rc, nil, nil, err
		}
		valNS += child("txn.validate", s)

		// exec drives the engine exactly as the server's stream workers
		// do; the wrapper times each call. Step time is one span per
		// program, as long as the summed steps.
		reg0, step0 := eng.regNS, eng.stepNS
		s = t()
		id, err := eng.Register(prog)
		if err != nil {
			return rc, nil, nil, err
		}
		local = append(local, span{name: "core.register", start: s, end: s + eng.regNS - reg0, parent: 0})
		s = t()
		if err := exec.StepToCommitBurst(context.Background(), eng, id, wake, 0, 1); err != nil {
			return rc, nil, nil, err
		}
		local = append(local, span{name: "core.step", start: s, end: s + eng.stepNS - step0, parent: 0})

		reply := committedReply(eng, id)
		s = t()
		if buf, err = wire.AppendTagged(buf[:0], 1, reply); err != nil {
			return rc, nil, nil, err
		}
		encNS += child("wire.encode", s)
		s = t()
		if _, err := wire.DecodeFrame(buf[4:]); err != nil {
			return rc, nil, nil, err
		}
		decNS += child("wire.decode", s)

		local[0].end = t()
		for i := range local {
			local[i].txn = int64(id)
		}
		led.add(local)
		all = appendTree(all, local)
	}
	if err := eng.CheckInvariants(); err != nil {
		return rc, nil, nil, fmt.Errorf("replay engine: %w", err)
	}
	n := float64(len(sent))
	rc.n = len(sent)
	rc.encodeNS = float64(encNS) / n
	rc.decodeNS = float64(decNS) / n
	rc.programNS = float64(progNS) / n
	rc.validateNS = float64(valNS) / n
	rc.registerNS = float64(eng.regNS) / n
	rc.stepNSPerOp = ratio(float64(eng.stepNS), float64(eng.ops))
	return rc, all, led, nil
}

// committedReply builds the Committed frame the server sends, from the
// same engine calls.
func committedReply(eng core.Engine, id txn.ID) wire.Committed {
	st := eng.TxnStatsOf(id)
	locals, _ := eng.Locals(id)
	decls := make([]wire.LocalDecl, 0, len(locals))
	for name, v := range locals {
		decls = append(decls, wire.LocalDecl{Name: name, Val: v})
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Name < decls[j].Name })
	_ = eng.Forget(id) // id has just committed; Forget cannot fail
	return wire.Committed{Txn: int64(id), Locals: decls, Stats: wire.TxnOutcome{
		OpsExecuted: st.OpsExecuted, OpsLost: st.OpsLost, Rollbacks: st.Rollbacks,
		Restarts: st.Restarts, Waits: st.Waits,
	}}
}

// appendTree appends one tree whose parent indexes are local to it.
func appendTree(dst, tree []span) []span {
	off := len(dst)
	for _, s := range tree {
		if s.parent >= 0 {
			s.parent += off
		}
		dst = append(dst, s)
	}
	return dst
}
