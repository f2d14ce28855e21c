package audit

// The conflict-serializability checker behind the Serializable auditor.
// Every protocol in this repository follows strict two-phase locking,
// so committed histories must always be conflict serializable.

import (
	"sort"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

// histOp is one data access in the history.
type histOp struct {
	Tx   int64
	Obj  core.ObjectID
	Mode core.Mode
	At   sim.Time
	Seq  int64
}

// history accumulates operations and commit decisions. It is not safe for
// concurrent use; in the simulation all appends happen under the kernel's
// single-runner discipline.
type history struct {
	ops       []histOp
	committed map[int64]bool
	seq       int64

	// scratch, edges, pendingReads, and color are reused by
	// ConflictSerializable so a pooled history checks without
	// steady-state allocation.
	scratch      []histOp
	edges        map[int64][]int64
	pendingReads []int64
	color        map[int64]int
}

// newHistory returns an empty history.
func newHistory() *history {
	return &history{committed: make(map[int64]bool)}
}

// Reset clears the history for reuse, keeping the operation buffer and
// scratch storage.
func (h *history) Reset() {
	h.ops = h.ops[:0]
	clear(h.committed)
	h.seq = 0
}

// Record appends one access.
func (h *history) Record(tx int64, obj core.ObjectID, mode core.Mode, at sim.Time) {
	h.seq++
	h.ops = append(h.ops, histOp{Tx: tx, Obj: obj, Mode: mode, At: at, Seq: h.seq})
}

// Commit marks a transaction as committed; only committed transactions
// participate in the serializability check (aborted ones are undone).
func (h *history) Commit(tx int64) { h.committed[tx] = true }

// Len returns the number of recorded operations.
func (h *history) Len() int { return len(h.ops) }

// Committed returns the number of committed transactions.
func (h *history) Committed() int { return len(h.committed) }

// ConflictSerializable builds the precedence graph over committed
// transactions — an edge Ti→Tj for each pair of conflicting operations
// where Ti's came first — and reports whether it is acyclic.
func (h *history) ConflictSerializable() bool {
	ops := h.scratch[:0]
	for _, op := range h.ops {
		if h.committed[op.Tx] {
			ops = append(ops, op)
		}
	}
	h.scratch = ops
	// One sort keyed (Obj, At, Seq) groups each object's accesses
	// contiguously in time order, replacing the per-object map of
	// slices the pairwise pass used to build.
	sort.Sort(opsByObjTime(ops))
	// Emit the transitive reduction of each object's conflict order
	// instead of all conflicting pairs: consecutive writes chain, each
	// write points at the reads that follow it (until the next write),
	// and each read points at the next write. Every all-pairs conflict
	// edge a→b is then implied by a path — writes between a and b chain
	// through, and same-transaction hops are the same graph node — so
	// the graph is acyclic exactly when the full precedence graph is,
	// at O(ops) edges per object instead of O(ops²).
	if h.edges == nil {
		h.edges = make(map[int64][]int64)
	} else {
		clear(h.edges)
	}
	edges := h.edges
	addEdge := func(from, to int64) {
		if from == to {
			return
		}
		es := edges[from]
		for _, e := range es {
			if e == to {
				return
			}
		}
		edges[from] = append(es, to)
	}
	pendingReads := h.pendingReads[:0]
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && ops[hi].Obj == ops[lo].Obj {
			hi++
		}
		prevWrite := int64(-1)
		hasWrite := false
		pendingReads = pendingReads[:0]
		for i := lo; i < hi; i++ {
			op := ops[i]
			if op.Mode == core.Read {
				if hasWrite {
					addEdge(prevWrite, op.Tx)
				}
				pendingReads = append(pendingReads, op.Tx)
				continue
			}
			if hasWrite {
				addEdge(prevWrite, op.Tx)
			}
			for _, r := range pendingReads {
				addEdge(r, op.Tx)
			}
			pendingReads = pendingReads[:0]
			prevWrite, hasWrite = op.Tx, true
		}
		lo = hi
	}
	h.pendingReads = pendingReads
	if h.color == nil {
		h.color = make(map[int64]int, len(edges))
	} else {
		clear(h.color)
	}
	return acyclic(edges, h.color)
}

// opsByObjTime sorts operations by object, then time, then sequence.
type opsByObjTime []histOp

func (s opsByObjTime) Len() int      { return len(s) }
func (s opsByObjTime) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s opsByObjTime) Less(i, j int) bool {
	if s[i].Obj != s[j].Obj {
		return s[i].Obj < s[j].Obj
	}
	if s[i].At != s[j].At {
		return s[i].At < s[j].At
	}
	return s[i].Seq < s[j].Seq
}

func acyclic(edges map[int64][]int64, color map[int64]int) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	var visit func(n int64) bool
	visit = func(n int64) bool {
		color[n] = gray
		for _, m := range edges[n] {
			switch color[m] {
			case gray:
				return false
			case white:
				if !visit(m) {
					return false
				}
			}
		}
		color[n] = black
		return true
	}
	// Acyclicity is independent of visit order, so iterating the
	// adjacency map directly is deterministic in outcome.
	for n := range edges {
		if color[n] == white && !visit(n) {
			return false
		}
	}
	return true
}
