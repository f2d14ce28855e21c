package core

import (
	"rtlock/internal/sim"
)

// Timestamp implements basic timestamp ordering, the third concurrency
// control the paper's prototyping environment offers ("locking,
// timestamp ordering, and priority-based"). Each transaction attempt
// receives a monotonically increasing timestamp at Register; accesses
// that arrive too late — a read of an object already written by a newer
// transaction, or a write of an object already read or written by a
// newer one — abort the attempt with ErrRestart. There is no blocking
// and no deadlock; all contention cost appears as wasted, redone work.
//
// Simplifications relative to textbook TO, both conservative: the
// per-object read/write timestamp maxima are not rolled back when an
// attempt aborts, and writes are validated at access time rather than
// installed through a recoverable buffer. Both can only cause extra
// restarts, never a serializability violation among committed attempts.
type Timestamp struct {
	k    *sim.Kernel
	pr   lockProbes
	name string
	next int64
	ts   map[*TxState]int64
	rts  map[ObjectID]int64
	wts  map[ObjectID]int64

	// Restarts counts access-time ordering violations issued.
	Restarts int
}

var _ Manager = (*Timestamp)(nil)

// NewTimestamp returns protocol TO.
func NewTimestamp(k *sim.Kernel) *Timestamp { return newTimestamp(k, row(ProtoTimestamp)) }

func newTimestamp(k *sim.Kernel, row *ProtocolRow) *Timestamp {
	m := &Timestamp{
		k:    k,
		name: row.Name,
		ts:   make(map[*TxState]int64),
		rts:  make(map[ObjectID]int64),
		wts:  make(map[ObjectID]int64),
	}
	m.Reset()
	return m
}

// Reset implements Manager.
func (m *Timestamp) Reset() {
	m.pr = newLockProbes(m.k)
	m.next, m.Restarts = 0, 0
	clear(m.ts)
	clear(m.rts)
	clear(m.wts)
}

// Name implements Manager.
func (m *Timestamp) Name() string { return m.name }

// Register implements Manager: the attempt receives its timestamp.
// Restarted attempts re-register and therefore move forward in the
// order, the classic restart-with-new-timestamp rule.
func (m *Timestamp) Register(tx *TxState) {
	m.next++
	m.ts[tx] = m.next
}

// Unregister implements Manager.
func (m *Timestamp) Unregister(tx *TxState) { delete(m.ts, tx) }

// Acquire implements Manager. It never blocks: it either admits the
// access (recording it in the timestamp table) or rejects the attempt
// with ErrRestart.
func (m *Timestamp) Acquire(p *sim.Proc, tx *TxState, obj ObjectID, mode Mode) error {
	m.pr.emitRequest(m.k, 0, tx, obj, mode)
	t, ok := m.ts[tx]
	if !ok {
		// Defensive: treat an unregistered attempt as stale.
		m.Restarts++
		return ErrRestart
	}
	switch mode {
	case Read:
		if t < m.wts[obj] {
			m.Restarts++
			return ErrRestart
		}
		if t > m.rts[obj] {
			m.rts[obj] = t
		}
	case Write:
		if t < m.rts[obj] || t < m.wts[obj] {
			m.Restarts++
			return ErrRestart
		}
		m.wts[obj] = t
	}
	// Track the access so ReleaseAll and monitors see a consistent
	// picture (TO holds no locks; held doubles as the access set).
	tx.setHeld(obj, mode)
	m.pr.emitGrant(m.k, 0, tx, obj, mode)
	return nil
}

// ReleaseAll implements Manager. TO holds no locks; only the
// transaction-local access record is cleared (in sorted order, so the
// journal's release records stay deterministic).
func (m *Timestamp) ReleaseAll(tx *TxState) {
	// tx.held is sorted by object id, keeping the journal's release
	// records deterministic.
	for i := range tx.held {
		m.pr.emitRelease(m.k, 0, tx, tx.held[i].obj)
	}
	tx.clearHeld()
}

// ObjectTimestamps exposes the read/write timestamps of an object for
// tests.
func (m *Timestamp) ObjectTimestamps(obj ObjectID) (rts, wts int64) {
	return m.rts[obj], m.wts[obj]
}
