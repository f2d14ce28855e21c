// Package core implements the real-time locking protocols the paper
// evaluates: two-phase locking without priority (protocol L), two-phase
// locking with priority mode (protocol P), two-phase locking with basic
// priority inheritance (§3.1), and the priority ceiling protocol (§3.2,
// protocol C) with write-, absolute-, and rw-priority ceilings, ceiling
// blocking, transitive priority inheritance, and the block-at-most-once
// and deadlock-freedom properties.
//
// The package is transaction-system agnostic: callers hand it a TxState
// per transaction (identity, assigned priority, declared read and write
// sets) and receive lock grants by parking the transaction's simulated
// process. Priority inheritance reaches the CPU scheduler through the
// TxState's OnPrioChange hook.
package core

import (
	"fmt"

	"rtlock/internal/sim"
)

// ObjectID names a data object (the paper's lockable granule).
type ObjectID int32

// Mode is a lock mode.
type Mode int

// Lock modes. Read locks are compatible with each other; write locks are
// exclusive.
const (
	Read Mode = iota + 1
	Write
)

// String renders the mode for traces.
func (m Mode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compatible reports whether a lock held in mode held allows another
// transaction to acquire mode req.
func compatible(held, req Mode) bool { return held == Read && req == Read }

// Manager is a single-site concurrency-control protocol. The distributed
// managers in internal/dist wrap Managers per site or globally.
type Manager interface {
	// Name identifies the protocol in reports: the Name of its row in
	// Protocols.
	Name() string
	// Register declares a transaction and its read/write sets to the
	// protocol; the ceiling protocol derives object ceilings from
	// registered transactions. Register must precede the first Acquire.
	Register(tx *TxState)
	// Unregister removes a departed (committed or aborted)
	// transaction. The caller must release its locks first.
	Unregister(tx *TxState)
	// Acquire obtains obj in the given mode on behalf of tx, parking p
	// until the lock is granted. It returns nil on grant, or the
	// cancellation error if the wait was interrupted (deadline abort).
	// Re-acquiring a held lock (same or weaker mode) succeeds
	// immediately; Read→Write upgrades are honored when permissible.
	Acquire(p *sim.Proc, tx *TxState, obj ObjectID, mode Mode) error
	// ReleaseAll releases every lock tx holds, sheds any inherited
	// priority, and wakes newly grantable waiters. Transactions follow
	// strict two-phase locking, releasing only at commit or abort.
	ReleaseAll(tx *TxState)
	// Reset empties the manager for a new run on its kernel, once the
	// kernel itself has been reset: no transaction registered or
	// waiting, no lock held, counters and journal state as the
	// constructor leaves them. It keeps the memory it has grown.
	Reset()
}

// TxState is the protocol-facing state of one transaction. States are
// pooled by the transaction system (one per in-flight attempt, recycled
// via ResetFor), so nothing may retain a *TxState past ReleaseAll +
// Unregister of the attempt that owns it.
type TxState struct {
	// ID is unique per run and breaks priority ties.
	ID int64
	// Base is the assigned priority (earliest deadline = highest). The
	// ceiling tests use Base; inheritance changes only Eff.
	Base sim.Priority
	// Proc is the simulated process executing the transaction.
	Proc *sim.Proc
	// ReadSet and WriteSet are the declared access sets, known at
	// arrival as in the paper's prototyping environment.
	ReadSet, WriteSet []ObjectID
	// OnPrioChange, if set, is invoked whenever the effective priority
	// changes, so the transaction layer can reprioritize the CPU.
	OnPrioChange func(eff sim.Priority)
	// Estimate is the transaction's total execution-time estimate
	// (size × per-object cost), used by the conditional-restart
	// policy to decide whether a requester can afford to wait for a
	// holder.
	Estimate sim.Duration

	// BlockedCount and BlockedTime accumulate lock-wait statistics for
	// the performance monitor.
	BlockedCount int
	BlockedTime  sim.Duration
	// BlockedBy records the distinct lower-priority transactions that
	// ever directly blocked this one; the ceiling protocol's
	// block-at-most-once property bounds its size. Allocated lazily on
	// the first qualifying block (most transactions are never blocked).
	BlockedBy map[int64]struct{}

	eff        sim.Priority
	held       []heldLock
	blockStart sim.Time
	blocked    bool
	wounded    error

	// igBlockedOn / igWaiters are this transaction's edges in its
	// manager's priority-inheritance graph (inherit.go), id-sorted. They
	// live here instead of in pointer-keyed maps because graph updates
	// are hot-path work and every TxState belongs to exactly one
	// manager (distributed sites build their own cohort states).
	igBlockedOn []*TxState
	igWaiters   []*TxState
}

// heldLock is one entry of a transaction's held-lock set, kept sorted by
// object id so release iteration is deterministic without per-release
// sorting. The sets are small (a transaction's access set), so lookups
// scan linearly.
type heldLock struct {
	obj  ObjectID
	mode Mode
}

// NewTxState returns transaction state with the given identity and
// assigned priority. Read and write sets may be filled in afterwards but
// before Register.
func NewTxState(id int64, base sim.Priority, p *sim.Proc) *TxState {
	return &TxState{
		ID:   id,
		Base: base,
		Proc: p,
		eff:  base,
	}
}

// ResetFor prepares a pooled transaction state for a fresh attempt,
// equivalent to NewTxState plus zeroed statistics. Only legal once the
// state has fully left its manager — released, unregistered, no parked
// waits — so the held-lock set and inheritance-graph edges are already
// empty and truncation just keeps their capacity.
func (t *TxState) ResetFor(id int64, base sim.Priority, p *sim.Proc) {
	t.ID = id
	t.Base = base
	t.Proc = p
	t.ReadSet = nil
	t.WriteSet = nil
	t.OnPrioChange = nil
	t.Estimate = 0
	t.BlockedCount = 0
	t.BlockedTime = 0
	clear(t.BlockedBy)
	t.eff = base
	t.held = t.held[:0]
	t.blockStart = 0
	t.blocked = false
	t.wounded = nil
	t.igBlockedOn = t.igBlockedOn[:0]
	t.igWaiters = t.igWaiters[:0]
}

// TxPool recycles transaction states. Put a state only once it has fully
// left its manager (see ResetFor) and nothing will use it again: Get
// hands it to the next attempt, which may register it anywhere.
type TxPool struct{ free []*TxState }

// Get returns a reset state from the pool, or a new one.
func (p *TxPool) Get(id int64, base sim.Priority, proc *sim.Proc) *TxState {
	if n := len(p.free); n > 0 {
		st := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		st.ResetFor(id, base, proc)
		return st
	}
	return NewTxState(id, base, proc)
}

// Put returns st to the pool.
func (p *TxPool) Put(st *TxState) { p.free = append(p.free, st) }

// Eff returns the current effective (possibly inherited) priority.
func (t *TxState) Eff() sim.Priority { return t.eff }

// Holds reports the mode in which t holds obj, if any.
func (t *TxState) Holds(obj ObjectID) (Mode, bool) {
	for i := range t.held {
		if t.held[i].obj == obj {
			return t.held[i].mode, true
		}
	}
	return 0, false
}

// setHeld records obj as held in mode, inserting in object order or
// upgrading Read to Write; weaker re-acquisitions are ignored.
func (t *TxState) setHeld(obj ObjectID, mode Mode) {
	i := 0
	for i < len(t.held) && t.held[i].obj < obj {
		i++
	}
	if i < len(t.held) && t.held[i].obj == obj {
		if mode == Write && t.held[i].mode == Read {
			t.held[i].mode = Write
		}
		return
	}
	t.held = append(t.held, heldLock{})
	copy(t.held[i+1:], t.held[i:])
	t.held[i] = heldLock{obj: obj, mode: mode}
}

// clearHeld empties the held set (keeping its capacity for the next
// attempt that reuses this TxState).
func (t *TxState) clearHeld() { t.held = t.held[:0] }

// HeldCount returns the number of locks currently held.
func (t *TxState) HeldCount() int { return len(t.held) }

// WantsWrite reports whether obj is in the declared write set.
func (t *TxState) WantsWrite(obj ObjectID) bool {
	for _, o := range t.WriteSet {
		if o == obj {
			return true
		}
	}
	return false
}

// setEff updates the effective priority, notifying the owner on change.
func (t *TxState) setEff(p sim.Priority) {
	if t.eff == p {
		return
	}
	t.eff = p
	if t.OnPrioChange != nil {
		t.OnPrioChange(p)
	}
}

// noteBlocked starts the blocked-interval clock and charges the blame set.
func (t *TxState) noteBlocked(now sim.Time, blamed []*TxState) {
	t.BlockedCount++
	t.blockStart = now
	t.blocked = true
	for _, h := range blamed {
		if h.Base.Lower(t.Base) {
			if t.BlockedBy == nil {
				t.BlockedBy = make(map[int64]struct{})
			}
			t.BlockedBy[h.ID] = struct{}{}
		}
	}
}

// noteUnblocked stops the blocked-interval clock and returns the
// interval's length (zero when the transaction was not blocked).
func (t *TxState) noteUnblocked(now sim.Time) sim.Duration {
	if !t.blocked {
		return 0
	}
	t.blocked = false
	d := now.Sub(t.blockStart)
	t.BlockedTime += d
	return d
}
