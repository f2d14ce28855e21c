package core

import "rtlock/internal/sim"

// lockHolder is one holder of a lock record. Holder sets are tiny (one
// writer or a few readers), so a linear slice beats a map.
type lockHolder struct {
	tx   *TxState
	mode Mode
}

// lockEntry is one object's lock record: who holds it and, in the
// lock-table family, who queues for it. Holders are a small unordered
// slice (every consumer either reduces them to a boolean or sorts by
// transaction id). Entries are pooled on the lockTable, which makes the
// create/drop churn of short lock lifetimes allocation-free.
type lockEntry struct {
	obj     ObjectID
	holders []lockHolder
	writers int // holders in Write mode
	queue   []*lockWaiter
	poolIdx int // position in lockTable.pool
}

func (e *lockEntry) find(tx *TxState) int {
	for i := range e.holders {
		if e.holders[i].tx == tx {
			return i
		}
	}
	return -1
}

// setHolder records tx as holding in mode, upgrading Read to Write;
// weaker re-acquisitions are ignored.
func (e *lockEntry) setHolder(tx *TxState, mode Mode) {
	if i := e.find(tx); i < 0 {
		e.holders = append(e.holders, lockHolder{tx: tx, mode: mode})
	} else if mode == Write && e.holders[i].mode == Read {
		e.holders[i].mode = Write
	} else {
		return
	}
	if mode == Write {
		e.writers++
	}
}

func (e *lockEntry) removeHolder(tx *TxState) {
	if i := e.find(tx); i >= 0 {
		if e.holders[i].mode == Write {
			e.writers--
		}
		last := len(e.holders) - 1
		e.holders[i] = e.holders[last]
		e.holders[last] = lockHolder{}
		e.holders = e.holders[:last]
	}
}

// holdersConflict reports whether e (nil: unlocked) has a holder other
// than tx whose mode is incompatible with mode.
func holdersConflict(e *lockEntry, tx *TxState, mode Mode) bool {
	if e == nil {
		return false
	}
	for i := range e.holders {
		if h := &e.holders[i]; h.tx != tx && !compatible(h.mode, mode) {
			return true
		}
	}
	return false
}

// lockWaiter is one parked lock waiter. Waiters are pooled on the
// lockTable: by the time wait's Park returns, the grant and cancel paths
// have both removed every reference (queue or blocked list, inheritance
// graph, token), so recycling cannot alias a live wait. The token is
// embedded by value and the cancel hook is the static-function form,
// routed back to the manager through the owner field without a per-block
// closure, so a blocking episode allocates nothing after warm-up. The
// entry pointer (lock-table family only) stays valid for the waiter's
// whole life because entries are recycled only once their queue is empty.
type lockWaiter struct {
	tx    *TxState
	obj   ObjectID
	mode  Mode
	tok   sim.Token
	seq   uint64
	e     *lockEntry
	owner tableOwner
}

// tableOwner is the family a table's waiters belong to.
type tableOwner interface {
	// dropWaiter detaches a waiter whose wait was cancelled and lets
	// whoever it was holding up proceed.
	dropWaiter(w *lockWaiter)
}

// lockWaiterCancel is lockWaiter's static cancel hook.
func lockWaiterCancel(arg any) {
	w := arg.(*lockWaiter)
	w.owner.dropWaiter(w)
}

// removeWaiter deletes w from q, keeping the order of the rest.
func removeWaiter(q []*lockWaiter, w *lockWaiter) []*lockWaiter {
	for i, o := range q {
		if o == w {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// lockTable is what the locking families share under their policies: an
// object-indexed store of pooled lock entries with a compact list of the
// live ones, the waiter pool, and the path a blocked request takes from
// its block record to its recycled waiter. A family embeds it and
// supplies the policy: when a request is granted, whom a block blames,
// and what a release or a cancelled wait sets moving.
type lockTable struct {
	k     *sim.Kernel
	pr    lockProbes
	owner tableOwner
	// jsite tags journal records; distributed runs give each site's
	// manager its site id (several managers share one kernel there).
	jsite int32
	// graph, when non-nil, has the transactions a waiter blames inherit
	// its priority.
	graph *inheritGraph

	// entries[obj] is the record of a locked or awaited object (nil
	// otherwise). pool is every record the table ever made: pool[:live]
	// are those of entries, unordered, so folds touch only locked
	// objects, and the rest are free. An entry is reachable through
	// entries only between get and drop, so pooling cannot alias live
	// state.
	entries []*lockEntry
	pool    []*lockEntry
	live    int

	freeWaiters []*lockWaiter
	seq         uint64 // arrival order of waiters

	// blame is the scratch result of conflicting (and the blameFor built
	// on it): the inheritance graph copies blame sets into its own
	// id-sorted storage and the journal helpers only iterate, so each
	// result is fully consumed before the next call.
	blame []*TxState
}

// reset empties the table for a new run, keeping its entries, waiters
// and scratch, and takes the probe handles afresh from the kernel.
func (t *lockTable) reset() {
	for _, e := range t.pool[:t.live] {
		t.entries[e.obj] = nil
		clear(e.holders)
		clear(e.queue)
		e.holders, e.writers, e.queue = e.holders[:0], 0, e.queue[:0]
	}
	t.live = 0
	t.seq = 0
	clear(t.blame)
	t.blame = t.blame[:0]
	t.pr = newLockProbes(t.k)
}

// at returns obj's entry, nil when unlocked or unseen.
func (t *lockTable) at(obj ObjectID) *lockEntry {
	if int(obj) >= len(t.entries) {
		return nil
	}
	return t.entries[obj]
}

// locked returns the entries of the locked (or awaited) objects.
func (t *lockTable) locked() []*lockEntry { return t.pool[:t.live] }

// LockedObjects reports how many objects are currently locked.
func (t *lockTable) LockedObjects() int { return t.live }

// get returns obj's entry, creating (from the pool) when absent.
func (t *lockTable) get(obj ObjectID) *lockEntry {
	for int(obj) >= len(t.entries) {
		t.entries = append(t.entries, nil)
	}
	e := t.entries[obj]
	if e == nil {
		if t.live == len(t.pool) {
			t.pool = append(t.pool, &lockEntry{})
		}
		e = t.pool[t.live]
		e.obj, e.poolIdx = obj, t.live
		t.live++
		t.entries[obj] = e
	}
	return e
}

// drop recycles an entry that has no holders and no waiters, which is
// all the reset an entry needs: it trades places with the last live one.
func (t *lockTable) drop(e *lockEntry) {
	t.entries[e.obj] = nil
	t.live--
	moved := t.pool[t.live]
	t.pool[e.poolIdx], t.pool[t.live] = moved, e
	moved.poolIdx = e.poolIdx
}

// hold records and journals the grant of e to tx.
func (t *lockTable) hold(e *lockEntry, tx *TxState, mode Mode) {
	e.setHolder(tx, mode)
	tx.setHeld(e.obj, mode)
	t.pr.emitGrant(t.k, t.jsite, tx, e.obj, mode)
}

// conflicting returns, in id order, e's holders other than tx whose mode
// is incompatible with mode (Write: every other holder). The result is
// the blame scratch.
func (t *lockTable) conflicting(e *lockEntry, tx *TxState, mode Mode) []*TxState {
	blamed := t.blame[:0]
	for i := range e.holders {
		if h := &e.holders[i]; h.tx != tx && !compatible(h.mode, mode) {
			blamed = append(blamed, h.tx)
		}
	}
	t.blame = blamed
	sortTxByID(blamed)
	return blamed
}

// newWaiter hands out a pooled waiter for tx's request, stamped with the
// next arrival number.
func (t *lockTable) newWaiter(tx *TxState, obj ObjectID, mode Mode, e *lockEntry) *lockWaiter {
	var w *lockWaiter
	if n := len(t.freeWaiters); n > 0 {
		w = t.freeWaiters[n-1]
		t.freeWaiters[n-1] = nil
		t.freeWaiters = t.freeWaiters[:n-1]
	} else {
		w = &lockWaiter{owner: t.owner}
	}
	t.seq++
	w.tx, w.obj, w.mode, w.seq, w.e = tx, obj, mode, t.seq, e
	return w
}

// block publishes w's wait on the blamed transactions: the block record,
// the blocked-interval clock, inheritance, and the hook that detaches w
// if the wait is cancelled.
func (t *lockTable) block(w *lockWaiter, blamed []*TxState, ceiling bool) {
	t.pr.emitBlock(t.k, t.jsite, w.tx, w.obj, blamed, ceiling)
	w.tx.noteBlocked(t.k.Now(), blamed)
	if t.graph != nil {
		t.graph.setBlame(w.tx, blamed)
	}
	w.tok.SetCancel(lockWaiterCancel, w)
}

// wait parks p until w is granted or cancelled, then recycles w.
func (t *lockTable) wait(p *sim.Proc, w *lockWaiter) error {
	err := p.Park(&w.tok)
	t.pr.observeUnblocked(t.k, w.tx)
	w.tx = nil
	w.e = nil
	w.tok.Reset()
	t.freeWaiters = append(t.freeWaiters, w)
	return err
}
