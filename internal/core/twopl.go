package core

import (
	"rtlock/internal/sim"
)

// woundRule says what a blocked requester may do to the conflicting
// holders of strictly lower priority ([Abb88] in the paper). Wounding
// makes every wait point toward higher priority, so distinct priorities
// cannot deadlock, at the price of wasted and redone work — the
// trade-off the paper's §5 raises for real-time transactions.
type woundRule int

const (
	// woundNever: the requester waits (protocols L, P, PI, DD).
	woundNever woundRule = iota
	// woundLower aborts and restarts every such holder rather than wait
	// behind it (High-Priority, HP); higher- or equal-priority holders
	// still block the requester.
	woundLower
	// woundNoSlack aborts such a holder only when the requester's slack
	// (time to its deadline) cannot absorb the holder's execution-time
	// estimate, and otherwise waits, sparing work the requester did not
	// need undone (conditional restart, CR).
	woundNoSlack
)

// lockRule is the row data that tells the lock-table protocols apart.
type lockRule struct {
	// fifo serves lock waiters in arrival order and never lets a new
	// request jump a non-empty queue (protocol L). Otherwise waiters are
	// served in effective-priority order and a new request may be
	// granted ahead of lower-priority waiters.
	fifo bool
	// inherit has conflicting holders inherit a waiter's priority.
	inherit bool
	// detect breaks waits-for cycles as they close.
	detect bool
	wound  woundRule
}

// TwoPL is the lock-table family, one manager for the six protocols of
// the table that differ only in their lockRule: L, P, PI (§3.1), DD, HP
// and CR. Two-phase locking can deadlock; in the paper's experiments
// deadlocked transactions simply miss their hard deadlines and are
// aborted, which breaks the cycle. FindDeadlock exposes waits-for cycle
// detection for tests and for the detection row.
type TwoPL struct {
	lockTable
	name string
	lockRule

	// DeadlocksResolved counts waits-for cycles broken by the
	// detection row.
	DeadlocksResolved int
	// Wounds counts holder aborts issued by the wounding rows; Spared
	// counts conflicts where woundNoSlack chose to wait instead.
	Wounds, Spared int
}

var _ Manager = (*TwoPL)(nil)

// newTwoPL builds the lock-table manager a row of the protocol table
// describes. The typed constructors below are for callers that read the
// manager's counters or FindDeadlock; what each protocol is stands in
// the table (protocols.go).
func newTwoPL(k *sim.Kernel, row *ProtocolRow) *TwoPL {
	m := &TwoPL{lockTable: lockTable{k: k}, name: row.Name, lockRule: row.lock}
	m.owner = m
	if m.inherit {
		m.graph = newInheritGraph()
	}
	m.Reset()
	return m
}

// Reset implements Manager.
func (m *TwoPL) Reset() {
	m.lockTable.reset()
	m.DeadlocksResolved, m.Wounds, m.Spared = 0, 0, 0
}

// NewTwoPL returns protocol L.
func NewTwoPL(k *sim.Kernel) *TwoPL { return newTwoPL(k, row(ProtoTwoPL)) }

// NewTwoPLPriority returns protocol P.
func NewTwoPLPriority(k *sim.Kernel) *TwoPL { return newTwoPL(k, row(ProtoTwoPLPrio)) }

// NewTwoPLInherit returns protocol PI.
func NewTwoPLInherit(k *sim.Kernel) *TwoPL { return newTwoPL(k, row(ProtoInherit)) }

// NewTwoPLDetect returns protocol DD.
func NewTwoPLDetect(k *sim.Kernel) *TwoPL { return newTwoPL(k, row(ProtoTwoPLDD)) }

// NewTwoPLHP returns protocol HP.
func NewTwoPLHP(k *sim.Kernel) *TwoPL { return newTwoPL(k, row(ProtoTwoPLHP)) }

// NewTwoPLCond returns protocol CR.
func NewTwoPLCond(k *sim.Kernel) *TwoPL { return newTwoPL(k, row(ProtoTwoPLCR)) }

// Name implements Manager.
func (m *TwoPL) Name() string { return m.name }

// Register implements Manager. The 2PL family needs no a-priori access
// set knowledge.
func (m *TwoPL) Register(tx *TxState) {}

// Unregister implements Manager.
func (m *TwoPL) Unregister(tx *TxState) {}

// Acquire implements Manager.
func (m *TwoPL) Acquire(p *sim.Proc, tx *TxState, obj ObjectID, mode Mode) error {
	m.pr.emitRequest(m.k, 0, tx, obj, mode)
	if held, ok := tx.Holds(obj); ok && (held == Write || mode == Read) {
		m.pr.emitGrant(m.k, 0, tx, obj, mode)
		return nil
	}
	e := m.get(obj)
	if m.admissible(e, tx, mode) {
		m.hold(e, tx, mode)
		return nil
	}
	w := m.newWaiter(tx, obj, mode, e)
	// Blame is fixed before any wound unwinds: a wounded holder's own
	// canceled wait can hand obj to queued readers on the spot. (That
	// hand-off re-blames nobody — the wounding rows do not inherit — so
	// the scratch result survives applyWound.)
	blamed := m.blameFor(e, w)
	m.applyWound(tx, blamed)
	e.queue = append(e.queue, w)
	m.block(w, blamed, false)
	if m.detect {
		m.breakCycle(w)
	}
	return m.wait(p, w)
}

// breakCycle, run as w blocks, wounds the victim of a waits-for cycle w
// just closed.
func (m *TwoPL) breakCycle(w *lockWaiter) {
	cycle := m.FindDeadlock()
	if len(cycle) == 0 {
		return
	}
	m.DeadlocksResolved++
	victim := lowestPriority(cycle)
	m.pr.emitWound(m.k, 0, victim, w.tx)
	if victim == w.tx {
		// Not parked yet: cancelling the armed token detaches w now and
		// makes the coming Park return ErrRestart without yielding.
		w.tok.Cancel(ErrRestart)
		return
	}
	victim.RequestWound(ErrRestart)
}

// lowestPriority picks the deadlock victim: the least urgent transaction
// on the cycle, ties broken by id for determinism.
func lowestPriority(cycle []*TxState) *TxState {
	victim := cycle[0]
	for _, t := range cycle[1:] {
		if victim.Eff().Higher(t.Eff()) || victim.Eff() == t.Eff() && t.ID > victim.ID {
			victim = t
		}
	}
	return victim
}

// applyWound applies the row's wound rule to the conflicting holders
// blocking tx. If all of them are wounded the lock arrives as soon as
// they unwind; otherwise tx waits behind the survivors.
func (m *TwoPL) applyWound(tx *TxState, conflicts []*TxState) {
	if m.wound == woundNever {
		return
	}
	slack := sim.Duration(tx.Base.Deadline - int64(m.k.Now()))
	for _, h := range conflicts {
		if !h.Eff().Lower(tx.Eff()) {
			continue
		}
		if m.wound == woundNoSlack && slack > h.Estimate {
			m.Spared++
			continue
		}
		m.Wounds++
		m.pr.emitWound(m.k, 0, h, tx)
		h.RequestWound(ErrRestart)
	}
}

// ReleaseAll implements Manager.
func (m *TwoPL) ReleaseAll(tx *TxState) {
	if len(tx.held) == 0 {
		return
	}
	// tx.held is sorted by object id, so the release order (and the
	// journal's release records) stays deterministic.
	for i := range tx.held {
		obj := tx.held[i].obj
		m.pr.emitRelease(m.k, 0, tx, obj)
		if e := m.at(obj); e != nil {
			e.removeHolder(tx)
		}
	}
	if m.inherit {
		m.graph.dropHolder(tx)
	}
	for i := range tx.held {
		m.processQueue(tx.held[i].obj)
	}
	tx.clearHeld()
}

// Waiting reports how many transactions are parked in lock queues.
func (m *TwoPL) Waiting() int {
	n := 0
	for _, e := range m.locked() {
		n += len(e.queue)
	}
	return n
}

// FindDeadlock returns the transactions on one waits-for cycle, or nil if
// the lock table is deadlock-free right now. The waits-for relation
// follows each waiter's current blame set.
func (m *TwoPL) FindDeadlock() []*TxState {
	// Build edges in object order (the table is object-indexed, so the
	// scan is naturally sorted). Each waiter sits in exactly one queue,
	// so the edge sets would come out equal in any order, but object
	// order also pins edge-slice ordering if a transaction ever waited
	// twice.
	edges := make(map[*TxState][]*TxState)
	for _, e := range m.entries {
		if e == nil {
			continue
		}
		for _, w := range e.queue {
			edges[w.tx] = append(edges[w.tx], m.blameFor(e, w)...)
		}
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[*TxState]int)
	var stack []*TxState
	var cycle []*TxState
	var visit func(t *TxState) bool
	visit = func(t *TxState) bool {
		state[t] = inStack
		stack = append(stack, t)
		for _, next := range edges[t] {
			switch state[next] {
			case inStack:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == next {
						return true
					}
				}
				return true
			case unvisited:
				if visit(next) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[t] = done
		return false
	}
	// Deterministic iteration: order roots by transaction id.
	roots := make([]*TxState, 0, len(edges))
	//rtlint:allow maprange roots is id-sorted by sortTxByID below before iteration
	for t := range edges {
		roots = append(roots, t)
	}
	sortTxByID(roots)
	for _, t := range roots {
		if state[t] == unvisited && visit(t) {
			return cycle
		}
	}
	return nil
}

// admissible reports whether a brand-new request may be granted
// immediately, respecting the queue order's fairness rule.
func (m *TwoPL) admissible(e *lockEntry, tx *TxState, mode Mode) bool {
	if holdersConflict(e, tx, mode) {
		return false
	}
	if m.fifo {
		return len(e.queue) == 0
	}
	for _, w := range e.queue {
		if w.tx.Eff().Higher(tx.Eff()) {
			return false
		}
	}
	return true
}

// processQueue grants the maximal queue-ordered prefix of obj's queue
// and, under inheritance, re-blames the waiters that remain blocked.
func (m *TwoPL) processQueue(obj ObjectID) {
	e := m.at(obj)
	if e == nil {
		return
	}
	// Effective priorities can change while queued (inheritance), so
	// ordering happens at grant time rather than insert time.
	if m.fifo {
		sortWaitersBySeq(e.queue)
	} else {
		sortWaitersByPrio(e.queue)
	}
	granted := 0
	for _, w := range e.queue {
		if holdersConflict(e, w.tx, w.mode) {
			break
		}
		m.hold(e, w.tx, w.mode)
		if m.inherit {
			m.graph.clear(w.tx)
		}
		w.tok.Wake(nil)
		granted++
	}
	if granted > 0 {
		// Shifted down, not resliced: the pooled entry keeps its queue's
		// capacity for the next episode.
		e.queue = e.queue[:copy(e.queue, e.queue[granted:])]
	}
	if m.inherit {
		for _, w := range e.queue {
			blamed := m.blameFor(e, w)
			m.pr.emitBlame(m.k, 0, w.tx, obj, blamed, false)
			m.graph.setBlame(w.tx, blamed)
		}
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		m.drop(e)
	}
}

// blameFor computes the transactions responsible for w's wait, in id
// order: the conflicting holders, or, when the wait is purely
// queue-order induced, the conflicting waiters ahead of w. The wounding
// rows blame holders only.
func (m *TwoPL) blameFor(e *lockEntry, w *lockWaiter) []*TxState {
	blamed := m.conflicting(e, w.tx, w.mode)
	if len(blamed) > 0 || m.wound != woundNever {
		return blamed
	}
	for _, other := range e.queue {
		if other.seq < w.seq && !compatible(other.mode, w.mode) {
			blamed = append(blamed, other.tx)
		}
	}
	m.blame = blamed
	sortTxByID(blamed)
	return blamed
}

func (m *TwoPL) dropWaiter(w *lockWaiter) {
	w.e.queue = removeWaiter(w.e.queue, w)
	if m.inherit {
		m.graph.clear(w.tx)
	}
	// Removing a waiter can unblock the queue (e.g. an aborted
	// upgrader was at the head).
	m.processQueue(w.obj)
}
