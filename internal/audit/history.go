package audit

// The conflict-serializability checker behind the Serializable auditor.
// Every protocol in this repository follows strict two-phase locking,
// so committed histories must always be conflict serializable.

import (
	"sort"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

// histOp is one data access in the history. Seq is 32 bits so that the
// record packs into 32 bytes: a history never holds 2^31 operations.
type histOp struct {
	Tx   int64
	Obj  core.ObjectID
	Seq  int32
	Mode core.Mode
	At   sim.Time
}

// histChunk is how many operations a full chunk of a history holds.
const histChunk = 1024

// history accumulates operations and commit decisions. It is not safe for
// concurrent use; in the simulation all appends happen under the kernel's
// single-runner discipline.
type history struct {
	// chunks hold the operations in recording order; operation i is
	// chunks[i/histChunk][i%histChunk]. Only the first chunk grows (by
	// doubling, up to histChunk); the later ones are made full size, so
	// a history of n operations allocates about n records and never
	// copies a large buffer.
	chunks [][]histOp
	n      int
	// committed maps each committed transaction to its commit rank, the
	// order of its Commit call.
	committed map[int64]int32
	seq       int32
	// reads is the scratch of conflicts.
	reads []txRank
}

// newHistory returns an empty history.
func newHistory() *history {
	return &history{committed: make(map[int64]int32)}
}

// reset empties the history, keeping its first chunk.
func (h *history) reset() {
	if len(h.chunks) > 0 {
		h.chunks = append(h.chunks[:0], h.chunks[0][:0])
	}
	h.n, h.seq = 0, 0
	clear(h.committed)
}

// Record appends one access.
func (h *history) Record(tx int64, obj core.ObjectID, mode core.Mode, at sim.Time) {
	last := len(h.chunks) - 1
	switch {
	case last < 0:
		h.chunks = append(h.chunks, make([]histOp, 0, 64))
		last = 0
	case len(h.chunks[last]) == histChunk:
		h.chunks = append(h.chunks, make([]histOp, 0, histChunk))
		last++
	case len(h.chunks[last]) == cap(h.chunks[last]):
		h.chunks[last] = append(make([]histOp, 0, 2*cap(h.chunks[last])), h.chunks[last]...)
	}
	h.seq++
	h.chunks[last] = append(h.chunks[last], histOp{Tx: tx, Obj: obj, Mode: mode, At: at, Seq: h.seq})
	h.n++
}

// Commit marks a transaction as committed; only committed transactions
// participate in the serializability check (aborted ones are undone).
func (h *history) Commit(tx int64) {
	if _, ok := h.committed[tx]; !ok {
		h.committed[tx] = int32(len(h.committed))
	}
}

// Len returns the number of recorded operations.
func (h *history) Len() int { return h.n }

// Committed returns the number of committed transactions.
func (h *history) Committed() int { return len(h.committed) }

func (h *history) op(i int) *histOp { return &h.chunks[i/histChunk][i%histChunk] }

// Less orders operations by object, then time, then sequence: one sort
// groups each object's accesses contiguously in time order.
func (h *history) Less(i, j int) bool {
	a, b := h.op(i), h.op(j)
	if a.Obj != b.Obj {
		return a.Obj < b.Obj
	}
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// Swap exchanges two operations.
func (h *history) Swap(i, j int) {
	a, b := h.op(i), h.op(j)
	*a, *b = *b, *a
}

// ConflictSerializable builds the precedence graph over committed
// transactions — an edge Ti→Tj for each pair of conflicting operations
// where Ti's came first — and reports whether it is acyclic. Under
// strict two-phase locking every edge runs from the earlier commit to
// the later one, so a first pass only checks that: commit order is then
// a topological order and no graph is built. A history with an edge
// against commit order gets the graph and the cycle search.
func (h *history) ConflictSerializable() bool {
	sort.Sort(h)
	if h.conflicts(nil) {
		return true
	}
	edges := make(map[int64][]int64)
	h.conflicts(edges)
	return acyclic(edges, make(map[int64]int, len(edges)))
}

// txRank is a committed transaction and its commit rank.
type txRank struct {
	tx   int64
	rank int32
}

// conflicts walks the sorted operations and emits the transitive
// reduction of each object's conflict order instead of all conflicting
// pairs: consecutive writes chain, each write points at the reads that
// follow it (until the next write), and each read points at the next
// write. Every all-pairs conflict edge a→b is then implied by a path —
// writes between a and b chain through, and same-transaction hops are
// the same graph node — so the graph is acyclic exactly when the full
// precedence graph is, at O(ops) edges per object instead of O(ops²).
// With edges nil it adds nothing and reports whether every edge runs
// forward in commit order; otherwise it fills edges and reports true.
func (h *history) conflicts(edges map[int64][]int64) bool {
	edge := func(from, to txRank) bool {
		if from.tx == to.tx {
			return true
		}
		if edges == nil {
			return from.rank < to.rank
		}
		es := edges[from.tx]
		for _, e := range es {
			if e == to.tx {
				return true
			}
		}
		edges[from.tx] = append(es, to.tx)
		return true
	}
	reads := h.reads[:0]
	defer func() { h.reads = reads[:0] }()
	for lo := 0; lo < h.n; {
		obj := h.op(lo).Obj
		var prevWrite txRank
		hasWrite := false
		reads = reads[:0]
		for ; lo < h.n && h.op(lo).Obj == obj; lo++ {
			op := h.op(lo)
			rank, ok := h.committed[op.Tx]
			if !ok {
				continue
			}
			cur := txRank{op.Tx, rank}
			if hasWrite && !edge(prevWrite, cur) {
				return false
			}
			if op.Mode == core.Read {
				reads = append(reads, cur)
				continue
			}
			for _, r := range reads {
				if !edge(r, cur) {
					return false
				}
			}
			reads = reads[:0]
			prevWrite, hasWrite = cur, true
		}
	}
	return true
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
