package audit

import (
	"fmt"

	"rtlock/internal/journal"
)

// QuorumIntersection checks the quorum replication invariant R+W > K
// buys: every read quorum observes the latest quorum-committed version.
// A KQuorumWrite record attests that a version reached a W-sized write
// quorum; a later KQuorumRead for the same object must report a version
// at least that new. The auditor also holds the rounds to their
// configured sizes — learned from the run's KPlacement banner — and the
// per-object commit sequence to monotonicity (writes are serialized by
// the primary's write lock).
type QuorumIntersection struct {
	readQ, writeQ int64
	committed     map[int32]int64 // obj -> latest quorum-committed seq
	v             []Violation
}

// NewQuorumIntersection returns the quorum-intersection auditor.
func NewQuorumIntersection() *QuorumIntersection {
	return &QuorumIntersection{committed: make(map[int32]int64)}
}

// Reset implements Auditor.
func (q *QuorumIntersection) Reset() {
	q.readQ, q.writeQ = 0, 0
	clear(q.committed)
	q.v = q.v[:0]
}

// Name implements Auditor.
func (q *QuorumIntersection) Name() string { return "quorum-intersection" }

// Observe implements Auditor.
func (q *QuorumIntersection) Observe(r *journal.Record) {
	switch r.Kind {
	case journal.KPlacement:
		q.readQ = r.B & 0xffffffff
		q.writeQ = r.B >> 32
	case journal.KQuorumWrite:
		if q.writeQ > 0 && r.B < q.writeQ {
			q.v = append(q.v, Violation{
				Rule: q.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("write round for obj %d reported %d acknowledgements, want >= W=%d", r.Obj, r.B, q.writeQ),
			})
		}
		if prev, ok := q.committed[r.Obj]; ok && r.A <= prev {
			q.v = append(q.v, Violation{
				Rule: q.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("quorum commit of obj %d at seq %d not after previous commit %d", r.Obj, r.A, prev),
			})
		}
		if r.A > q.committed[r.Obj] {
			q.committed[r.Obj] = r.A
		}
	case journal.KQuorumRead:
		if q.readQ > 0 && r.B < q.readQ {
			q.v = append(q.v, Violation{
				Rule: q.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("read round for obj %d reported %d replies, want >= R=%d", r.Obj, r.B, q.readQ),
			})
		}
		if want := q.committed[r.Obj]; r.A < want {
			q.v = append(q.v, Violation{
				Rule: q.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("read of obj %d observed seq %d, older than latest quorum-committed %d", r.Obj, r.A, want),
			})
		}
	}
}

// Finish implements Auditor.
func (q *QuorumIntersection) Finish() []Violation { return q.v }
