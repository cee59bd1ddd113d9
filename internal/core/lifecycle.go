package core

import (
	"errors"
	"fmt"

	"partialrollback/internal/txn"
)

// Transactions in a long-running service come and go; these hooks let a
// serving layer (internal/server) retire transaction state so the
// system does not accumulate every transaction it ever executed.

// ErrCommitted reports an Abort of a transaction that has already
// committed (the caller lost a race with the commit; the work is done).
var ErrCommitted = errors.New("core: transaction already committed")

// ErrShrinking reports an Abort of a transaction that has entered its
// shrinking phase. Such a transaction has installed no global values
// yet but can no longer be rolled back (§2 forbids rollback past an
// unlock); it also can never block again — no lock requests remain — so
// the caller should simply step it to commit.
var ErrShrinking = errors.New("core: transaction is unlocking and must run to commit")

// Abort rolls a transaction back to its initial state and removes it
// from the system, releasing every lock it holds and retracting any
// pending request. It is the serving layer's escape hatch for request
// deadlines, client disconnects, and shutdown drain. It fails with
// ErrCommitted for committed transactions and ErrShrinking for
// transactions past their first unlock.
func (s *System) Abort(id txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return err
	}
	switch {
	case t.status == StatusCommitted:
		return ErrCommitted
	case t.unlocked:
		return ErrShrinking
	}
	// A transaction that has issued at least one lock request has a
	// recorded initial lock state to roll back to; one that has not holds
	// nothing and (per the §4 validation rule: no writes before the
	// first lock request) has modified nothing.
	if len(t.lockStates) > 0 {
		if err := s.rollbackTo(t, 0); err != nil {
			return fmt.Errorf("core: abort %v: %w", id, err)
		}
	}
	delete(s.txns, id)
	s.unpinAll(t)
	s.wf.RemoveTxn(id)
	s.stats.Aborts++
	s.emit(Event{Kind: EventAbort, Txn: id, Detail: t.prog.Name})
	return nil
}

// Forget removes a committed transaction's bookkeeping. Serving layers
// call it after reporting the commit so the transaction table stays
// bounded under sustained traffic. It fails for transactions that have
// not committed.
func (s *System) Forget(id txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return err
	}
	if t.status != StatusCommitted {
		return fmt.Errorf("core: cannot forget %v: status %v", id, t.status)
	}
	delete(s.txns, id)
	return nil
}

// Retire is the serving layer's one engine call per committed
// transaction: it returns id's counters and appends its final local
// values to locals in slot order (the order of the program analysis'
// LocalNames), then forgets id — TxnStatsOf, Locals and Forget under a
// single engine-lock acquisition, with no map built. It fails, and
// forgets nothing, for transactions that have not committed.
func (s *System) Retire(id txn.ID, locals []int64) (TxnStats, []int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return TxnStats{}, locals, err
	}
	if t.status != StatusCommitted {
		return TxnStats{}, locals, fmt.Errorf("core: cannot retire %v: status %v", id, t.status)
	}
	delete(s.txns, id)
	return t.stats, append(locals, t.locals...), nil
}
