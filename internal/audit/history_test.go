package audit

import (
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

func TestSerializableSimple(t *testing.T) {
	h := newHistory()
	// t1 then t2, fully ordered.
	h.Record(1, 10, core.Write, 1)
	h.Record(1, 11, core.Write, 2)
	h.Record(2, 10, core.Write, 5)
	h.Record(2, 11, core.Write, 6)
	h.Commit(1)
	h.Commit(2)
	if !h.ConflictSerializable() {
		t.Fatal("sequential history flagged non-serializable")
	}
}

func TestNonSerializableCycle(t *testing.T) {
	h := newHistory()
	// w1(x) w2(x) w2(y) w1(y): t1→t2 on x, t2→t1 on y.
	h.Record(1, 1, core.Write, 1)
	h.Record(2, 1, core.Write, 2)
	h.Record(2, 2, core.Write, 3)
	h.Record(1, 2, core.Write, 4)
	h.Commit(1)
	h.Commit(2)
	if h.ConflictSerializable() {
		t.Fatal("cyclic history passed")
	}
}

func TestReadsDoNotConflict(t *testing.T) {
	h := newHistory()
	h.Record(1, 1, core.Read, 1)
	h.Record(2, 1, core.Read, 2)
	h.Record(2, 2, core.Read, 3)
	h.Record(1, 2, core.Read, 4)
	h.Commit(1)
	h.Commit(2)
	if !h.ConflictSerializable() {
		t.Fatal("read-only interleaving flagged")
	}
}

func TestReadWriteConflictsCount(t *testing.T) {
	h := newHistory()
	// r1(x) w2(x) r2(y)... w1(y): t1→t2 on x (r-w), t2→t1 on y (w-r? no:
	// r2(y) then w1(y) gives t2→t1). Cycle.
	h.Record(1, 1, core.Read, 1)
	h.Record(2, 1, core.Write, 2)
	h.Record(2, 2, core.Read, 3)
	h.Record(1, 2, core.Write, 4)
	h.Commit(1)
	h.Commit(2)
	if h.ConflictSerializable() {
		t.Fatal("read-write cycle passed")
	}
}

func TestAbortedTransactionsExcluded(t *testing.T) {
	h := newHistory()
	// Same cycle as above, but t2 never commits.
	h.Record(1, 1, core.Write, 1)
	h.Record(2, 1, core.Write, 2)
	h.Record(2, 2, core.Write, 3)
	h.Record(1, 2, core.Write, 4)
	h.Commit(1)
	if !h.ConflictSerializable() {
		t.Fatal("aborted transaction's operations affected the check")
	}
	if h.Committed() != 1 || h.Len() != 4 {
		t.Fatalf("committed=%d len=%d", h.Committed(), h.Len())
	}
}

func TestTieBreakBySeq(t *testing.T) {
	h := newHistory()
	// Both ops at the same instant: recording order decides.
	h.Record(1, 1, core.Write, 5)
	h.Record(2, 1, core.Write, 5)
	h.Record(1, 2, core.Write, 6)
	h.Record(2, 2, core.Write, 7)
	h.Commit(1)
	h.Commit(2)
	if !h.ConflictSerializable() {
		t.Fatal("t1 before t2 on both objects; serializable")
	}
}

func TestEdgeAgainstCommitOrder(t *testing.T) {
	// t1 writes x before t2 but commits after it: the edge t1→t2 runs
	// against commit order, so the commit-order pass cannot vouch for
	// the history and the graph decides.
	h := newHistory()
	h.Record(1, 1, core.Write, 1)
	h.Record(2, 1, core.Write, 2)
	h.Commit(2)
	h.Commit(1)
	if !h.ConflictSerializable() {
		t.Fatal("acyclic history against commit order flagged")
	}
	h = newHistory()
	h.Record(1, 1, core.Write, 1)
	h.Record(2, 1, core.Write, 2)
	h.Record(2, 2, core.Write, 3)
	h.Record(1, 2, core.Write, 4)
	h.Commit(2)
	h.Commit(1)
	if h.ConflictSerializable() {
		t.Fatal("cycle against commit order passed")
	}
}

func TestHistoryAcrossChunks(t *testing.T) {
	// Serial transactions over a few objects, enough operations to fill
	// several chunks, and optionally a cycle whose two halves are
	// recorded in the first chunk and the last.
	const txs, size = 700, 5
	build := func(cycle bool) *history {
		h := newHistory()
		if cycle {
			h.Record(txs+1, 100, core.Write, 1)
			h.Record(txs+2, 100, core.Write, 2)
		}
		at := sim.Time(0)
		for tx := int64(1); tx <= txs; tx++ {
			for k := 0; k < size; k++ {
				at++
				h.Record(tx, core.ObjectID((int(tx)+k)%7), core.Write, at)
			}
			h.Commit(tx)
		}
		if cycle {
			h.Record(txs+2, 101, core.Read, at+1)
			h.Record(txs+1, 101, core.Write, at+2)
			h.Commit(txs + 1)
			h.Commit(txs + 2)
		}
		return h
	}
	if h := build(false); h.Len() <= 2*histChunk || !h.ConflictSerializable() {
		t.Fatalf("serial history of %d operations flagged", h.Len())
	}
	if build(true).ConflictSerializable() {
		t.Fatal("cycle across chunks passed")
	}
}
