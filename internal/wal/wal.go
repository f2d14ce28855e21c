// Package wal provides the database-recovery substrate the paper's
// prototyping environment exists to host experiments for ("new
// approaches for synchronization and database recovery … experimentation
// to verify their properties … has not been performed due to the lack of
// appropriate test tools", §1; the module library offers "database
// management functions" including recovery).
//
// The scheme matches the runtime's deferred-update execution exactly:
// writes become visible only at commit, so the log is redo-only — one
// record per committed transaction carrying its write-set — and
// checkpoints snapshot the committed state. Restart loads the latest
// checkpoint and replays the committed records after it; no undo is ever
// needed.
package wal

import (
	"fmt"
	"sort"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

// WriteImage is one object's after-image in a commit record.
type WriteImage struct {
	Obj   core.ObjectID
	Value int64
}

// CommitRecord is the redo record of one committed transaction.
type CommitRecord struct {
	LSN    int64
	Tx     int64
	At     sim.Time
	Writes []WriteImage
}

// VoteRecord is a two-phase-commit participant's forced yes-vote: once
// it is on the log the participant is prepared and may no longer
// unilaterally abort. Coord is the coordinator's home site and Objs the
// participant's share of the write-set, so recovery can finish the
// transaction after a crash. Abort votes are never logged
// (presumed-abort: absence of a vote record means the participant never
// promised anything).
type VoteRecord struct {
	LSN   int64
	Tx    int64
	At    sim.Time
	Coord int
	Objs  []core.ObjectID
}

// Log is a redo-only write-ahead log with sharp checkpoints. It models
// the recovery component of a memory-resident real-time database: the
// durable state is the latest checkpoint snapshot plus the commit
// records after it. For distributed runs it also carries the
// two-phase-commit records — participant yes-votes and final decisions
// — that survive a site crash.
type Log struct {
	lsn     int64
	records []CommitRecord

	votes     []VoteRecord
	decisions map[int64]bool

	checkpointLSN  int64
	checkpointAt   sim.Time
	snapshot       map[core.ObjectID]int64
	checkpoints    int
	recordsWritten int
}

// NewLog returns an empty log (the implicit initial checkpoint is the
// empty database at time zero).
func NewLog() *Log {
	return &Log{snapshot: make(map[core.ObjectID]int64), decisions: make(map[int64]bool)}
}

// AppendVote forces a participant's yes-vote to the log and returns its
// LSN. It is idempotent per transaction: a duplicate prepare re-votes
// without writing a second record.
func (l *Log) AppendVote(tx int64, at sim.Time, coord int, objs []core.ObjectID) int64 {
	for i := range l.votes {
		if l.votes[i].Tx == tx {
			return l.votes[i].LSN
		}
	}
	l.lsn++
	l.recordsWritten++
	l.votes = append(l.votes, VoteRecord{
		LSN: l.lsn, Tx: tx, At: at, Coord: coord,
		Objs: append([]core.ObjectID(nil), objs...),
	})
	return l.lsn
}

// AppendDecision logs the final outcome of a two-phase commit the site
// took part in (as coordinator or participant). Under presumed-abort
// only commits strictly need the force, but participants also log their
// aborts so recovery does not re-resolve settled transactions.
func (l *Log) AppendDecision(tx int64, commit bool) int64 {
	if _, ok := l.decisions[tx]; !ok {
		l.recordsWritten++
	}
	l.lsn++
	l.decisions[tx] = commit
	return l.lsn
}

// Decision reports the logged outcome for a transaction, if any.
func (l *Log) Decision(tx int64) (commit, known bool) {
	commit, known = l.decisions[tx]
	return commit, known
}

// PendingVotes returns the yes-votes with no logged decision, in LSN
// order — exactly the in-doubt transactions restart must resolve with
// the coordinator.
func (l *Log) PendingVotes() []VoteRecord {
	var out []VoteRecord
	for i := range l.votes {
		if _, ok := l.decisions[l.votes[i].Tx]; !ok {
			out = append(out, l.votes[i])
		}
	}
	return out
}

// AppendCommit logs a committed transaction's write-set and returns its
// LSN. Read-only transactions need no record; callers may skip them.
func (l *Log) AppendCommit(tx int64, at sim.Time, writes []WriteImage) int64 {
	l.lsn++
	l.recordsWritten++
	rec := CommitRecord{LSN: l.lsn, Tx: tx, At: at, Writes: append([]WriteImage(nil), writes...)}
	l.records = append(l.records, rec)
	return rec.LSN
}

// Checkpoint snapshots the committed state: records before it become
// irrelevant to restart and are truncated.
func (l *Log) Checkpoint(at sim.Time, state map[core.ObjectID]int64) {
	l.lsn++
	l.checkpoints++
	l.checkpointLSN = l.lsn
	l.checkpointAt = at
	l.snapshot = make(map[core.ObjectID]int64, len(state))
	for k, v := range state {
		l.snapshot[k] = v
	}
	l.records = l.records[:0]
}

// RedoLength reports how many commit records restart would replay.
func (l *Log) RedoLength() int { return len(l.records) }

// Checkpoints reports how many checkpoints were taken.
func (l *Log) Checkpoints() int { return l.checkpoints }

// Records reports how many commit records were ever written.
func (l *Log) Records() int { return l.recordsWritten }

// Recover rebuilds the committed state: the latest checkpoint snapshot
// plus every logged commit after it, applied in LSN order.
func (l *Log) Recover() map[core.ObjectID]int64 {
	state := make(map[core.ObjectID]int64, len(l.snapshot))
	for k, v := range l.snapshot {
		state[k] = v
	}
	recs := append([]CommitRecord(nil), l.records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	for _, rec := range recs {
		for _, w := range rec.Writes {
			state[w.Obj] = w.Value
		}
	}
	return state
}

// RecoveryTime estimates restart duration, the model every report uses:
// loading the snapshot at 0.1 ms per object plus replaying the redo
// tail at 1 ms per record.
func (l *Log) RecoveryTime() sim.Duration {
	return sim.Duration(len(l.snapshot))*sim.Millisecond/10 + sim.Duration(len(l.records))*sim.Millisecond
}

// String summarizes the log for reports.
func (l *Log) String() string {
	return fmt.Sprintf("wal: %d records total, %d checkpoints, redo tail %d",
		l.recordsWritten, l.checkpoints, len(l.records))
}
