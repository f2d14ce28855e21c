package core

import (
	"errors"
	"testing"

	"rtlock/internal/sim"
)

// woundScript runs scripted transactions under the lock-table row mk
// builds and returns the manager for its counters. Wounded attempts are
// only recorded: the core-level harness does not restart (the txn layer
// owns that).
func woundScript(t *testing.T, mk func(*sim.Kernel) *TwoPL, txs ...*scriptTx) *TwoPL {
	t.Helper()
	k := sim.NewKernel()
	m := mk(k)
	runScript(t, k, m, txs)
	return m
}

// TestWoundRulesSideBySide is the one conflict that tells the three wound
// rules apart: a low-priority holder with 40ms of work left when a
// high-priority requester with 90ms of slack asks for its lock.
func TestWoundRulesSideBySide(t *testing.T) {
	ms := sim.Millisecond
	for _, tc := range []struct {
		name           string
		mk             func(*sim.Kernel) *TwoPL
		estimate       sim.Duration // the holder's
		wounds, spared int
		reqDoneAt      sim.Duration
	}{
		{"P waits", NewTwoPLPriority, 50 * ms, 0, 0, 55 * ms},
		{"HP wounds", NewTwoPLHP, 50 * ms, 1, 0, 15 * ms},
		{"CR waits while slack > estimate", NewTwoPLCond, 89 * ms, 0, 1, 55 * ms},
		{"CR wounds once slack <= estimate", NewTwoPLCond, 90 * ms, 1, 0, 15 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			holder := &scriptTx{id: 2, deadline: int64(800 * ms), estimate: tc.estimate,
				steps: []step{{obj: 1, mode: Write, work: 50 * ms}}}
			req := &scriptTx{id: 1, deadline: int64(100 * ms), start: 10 * ms, estimate: 5 * ms,
				steps: []step{{obj: 1, mode: Write, work: 5 * ms}}}
			m := woundScript(t, tc.mk, holder, req)
			if m.Wounds != tc.wounds || m.Spared != tc.spared {
				t.Errorf("wounds=%d spared=%d, want %d/%d", m.Wounds, m.Spared, tc.wounds, tc.spared)
			}
			if wounded := errors.Is(holder.err, ErrRestart); wounded != (tc.wounds > 0) || holder.done == wounded {
				t.Errorf("holder done=%v err=%v with %d wounds", holder.done, holder.err, tc.wounds)
			}
			if !req.done || req.doneAt != sim.Time(tc.reqDoneAt) {
				t.Errorf("requester done=%v at %v, want %v", req.done, req.doneAt, tc.reqDoneAt)
			}
		})
	}
}

func TestHPWoundsLowerPriorityHolder(t *testing.T) {
	low := &scriptTx{id: 2, deadline: 100, steps: []step{{obj: 1, mode: Write, work: 100 * sim.Millisecond}}}
	high := &scriptTx{id: 1, deadline: 1, start: 10 * sim.Millisecond, steps: []step{{obj: 1, mode: Write, work: 5 * sim.Millisecond}}}
	m := woundScript(t, NewTwoPLHP, low, high)
	if !errors.Is(low.err, ErrRestart) {
		t.Fatalf("low-priority holder err = %v, want ErrRestart (wounded)", low.err)
	}
	if !high.done {
		t.Fatalf("high-priority requester stuck: %v", high.err)
	}
	// Wounded at 10ms, high then runs 5ms.
	if high.doneAt != sim.Time(15*sim.Millisecond) {
		t.Fatalf("high done at %v, want 15ms", high.doneAt)
	}
	if m.Wounds != 1 {
		t.Fatalf("Wounds = %d, want 1", m.Wounds)
	}
}

func TestHPHigherPriorityHolderBlocksRequester(t *testing.T) {
	high := &scriptTx{id: 1, deadline: 1, steps: []step{{obj: 1, mode: Write, work: 30 * sim.Millisecond}}}
	low := &scriptTx{id: 2, deadline: 100, start: 5 * sim.Millisecond, steps: []step{{obj: 1, mode: Write, work: 5 * sim.Millisecond}}}
	m := woundScript(t, NewTwoPLHP, high, low)
	if high.err != nil || low.err != nil {
		t.Fatalf("errs: high=%v low=%v", high.err, low.err)
	}
	if low.doneAt != sim.Time(35*sim.Millisecond) {
		t.Fatalf("low done at %v, want 35ms (waits, no wound)", low.doneAt)
	}
	if m.Wounds != 0 {
		t.Fatalf("Wounds = %d, want 0", m.Wounds)
	}
}

func TestHPWoundsAllConflictingReaders(t *testing.T) {
	r1 := &scriptTx{id: 2, deadline: 20, steps: []step{{obj: 1, mode: Read, work: 100 * sim.Millisecond}}}
	r2 := &scriptTx{id: 3, deadline: 30, steps: []step{{obj: 1, mode: Read, work: 100 * sim.Millisecond}}}
	w := &scriptTx{id: 1, deadline: 1, start: 10 * sim.Millisecond, steps: []step{{obj: 1, mode: Write, work: 5 * sim.Millisecond}}}
	m := woundScript(t, NewTwoPLHP, r1, r2, w)
	if !errors.Is(r1.err, ErrRestart) || !errors.Is(r2.err, ErrRestart) {
		t.Fatalf("reader errs: %v / %v, want both wounded", r1.err, r2.err)
	}
	if !w.done || w.doneAt != sim.Time(15*sim.Millisecond) {
		t.Fatalf("writer done=%v at %v, want 15ms", w.done, w.doneAt)
	}
	if m.Wounds != 2 {
		t.Fatalf("Wounds = %d, want 2", m.Wounds)
	}
}

func TestHPNoDeadlockAmongDistinctPriorities(t *testing.T) {
	// The classic cross-order scenario: under HP the higher-priority
	// transaction wounds the lower one instead of deadlocking.
	a := &scriptTx{id: 1, deadline: 1, steps: []step{
		{obj: 1, mode: Write, work: 10 * sim.Millisecond},
		{obj: 2, mode: Write, work: 10 * sim.Millisecond},
	}}
	b := &scriptTx{id: 2, deadline: 2, start: 1 * sim.Millisecond, steps: []step{
		{obj: 2, mode: Write, work: 10 * sim.Millisecond},
		{obj: 1, mode: Write, work: 10 * sim.Millisecond},
	}}
	woundScript(t, NewTwoPLHP, a, b)
	if !a.done {
		t.Fatalf("high-priority a stuck: %v", a.err)
	}
	if !errors.Is(b.err, ErrRestart) {
		t.Fatalf("b err = %v, want wounded", b.err)
	}
}

func TestHPPendingWoundWhenNotParked(t *testing.T) {
	// RequestWound on a transaction that is not parked leaves the
	// wound pending; Wounded() reports it.
	st := NewTxState(1, sim.Priority{Deadline: 1, TxID: 1}, nil)
	if st.Wounded() != nil {
		t.Fatal("fresh state already wounded")
	}
	st.RequestWound(ErrRestart)
	if !errors.Is(st.Wounded(), ErrRestart) {
		t.Fatalf("Wounded = %v", st.Wounded())
	}
	// A second wound keeps the first error.
	other := errors.New("other")
	st.RequestWound(other)
	if !errors.Is(st.Wounded(), ErrRestart) {
		t.Fatal("second wound overwrote the first")
	}
}

func TestHPReleaseWakesQueue(t *testing.T) {
	holder := &scriptTx{id: 1, deadline: 1, steps: []step{{obj: 1, mode: Write, work: 10 * sim.Millisecond}}}
	waiter := &scriptTx{id: 2, deadline: 2, start: 1 * sim.Millisecond, steps: []step{{obj: 1, mode: Write, work: 10 * sim.Millisecond}}}
	m := woundScript(t, NewTwoPLHP, holder, waiter)
	if !holder.done || !waiter.done {
		t.Fatalf("holder=%v waiter=%v", holder.done, waiter.done)
	}
	if m.Waiting() != 0 {
		t.Fatalf("leaked waiters: %d", m.Waiting())
	}
}

func TestCondSparesWhenSlackGenerous(t *testing.T) {
	ms := sim.Millisecond
	// Holder estimate 50ms; requester's deadline is 500ms away: it can
	// afford to wait, so the holder is spared.
	holder := &scriptTx{id: 2, deadline: int64(800 * ms), estimate: 50 * ms, steps: []step{{obj: 1, mode: Write, work: 50 * ms}}}
	req := &scriptTx{id: 1, deadline: int64(500 * ms), start: 10 * ms, estimate: 5 * ms, steps: []step{{obj: 1, mode: Write, work: 5 * ms}}}
	m := woundScript(t, NewTwoPLCond, holder, req)
	if !holder.done {
		t.Fatalf("spared holder did not finish: %v", holder.err)
	}
	if !req.done || req.doneAt != sim.Time(55*ms) {
		t.Fatalf("requester done=%v at %v, want 55ms (waited)", req.done, req.doneAt)
	}
	if m.Wounds != 0 || m.Spared != 1 {
		t.Fatalf("wounds=%d spared=%d, want 0/1", m.Wounds, m.Spared)
	}
}

func TestCondWoundsWhenSlackTight(t *testing.T) {
	ms := sim.Millisecond
	// Holder estimate 200ms; requester's deadline only 60ms away: it
	// cannot wait, so the holder is wounded.
	holder := &scriptTx{id: 2, deadline: int64(800 * ms), estimate: 200 * ms, steps: []step{{obj: 1, mode: Write, work: 200 * ms}}}
	req := &scriptTx{id: 1, deadline: int64(60 * ms), start: 10 * ms, estimate: 5 * ms, steps: []step{{obj: 1, mode: Write, work: 5 * ms}}}
	m := woundScript(t, NewTwoPLCond, holder, req)
	if !errors.Is(holder.err, ErrRestart) {
		t.Fatalf("holder err = %v, want wounded", holder.err)
	}
	if !req.done || req.doneAt != sim.Time(15*ms) {
		t.Fatalf("requester done=%v at %v, want 15ms", req.done, req.doneAt)
	}
	if m.Wounds != 1 {
		t.Fatalf("wounds = %d, want 1", m.Wounds)
	}
}

func TestCondNeverWoundsHigherPriority(t *testing.T) {
	ms := sim.Millisecond
	// Same deadline, so the holder's lower id makes it the higher
	// priority; the requester has no slack left over the holder's
	// estimate and must still wait.
	holder := &scriptTx{id: 1, deadline: int64(100 * ms), estimate: 150 * ms, steps: []step{{obj: 1, mode: Write, work: 50 * ms}}}
	req := &scriptTx{id: 2, deadline: int64(100 * ms), start: 10 * ms, estimate: 5 * ms, steps: []step{{obj: 1, mode: Write, work: 5 * ms}}}
	m := woundScript(t, NewTwoPLCond, holder, req)
	if !holder.done {
		t.Fatalf("higher-priority holder wounded: %v", holder.err)
	}
	if m.Wounds != 0 {
		t.Fatalf("wounds = %d, want 0", m.Wounds)
	}
	if !req.done {
		t.Fatalf("requester stuck: %v", req.err)
	}
}

func TestCondCancelWaiterUnblocksQueue(t *testing.T) {
	ms := sim.Millisecond
	// High-priority holder; two lower-priority waiters with generous
	// slack (spared); the first waiter is canceled mid-wait and the
	// second must still be granted.
	holder := &scriptTx{id: 1, deadline: int64(100 * ms), estimate: 20 * ms, steps: []step{{obj: 1, mode: Write, work: 20 * ms}}}
	victim := &scriptTx{id: 2, deadline: int64(900 * ms), start: 1 * ms, estimate: 20 * ms, steps: []step{{obj: 1, mode: Write, work: 5 * ms}}}
	after := &scriptTx{id: 3, deadline: int64(950 * ms), start: 2 * ms, estimate: 20 * ms, steps: []step{{obj: 1, mode: Write, work: 5 * ms}}}
	k := sim.NewKernel()
	m := NewTwoPLCond(k)
	k.At(sim.Time(5*ms), func() { victim.st.Proc.Interrupt(ErrRestart) })
	runScript(t, k, m, []*scriptTx{holder, victim, after})
	if victim.err == nil {
		t.Fatal("victim was not canceled")
	}
	if !after.done {
		t.Fatal("waiter behind canceled victim never granted")
	}
	if m.Waiting() != 0 {
		t.Fatalf("leaked waiters: %d", m.Waiting())
	}
}
