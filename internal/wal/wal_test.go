package wal

import (
	"testing"
	"testing/quick"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

func TestRecoverEmpty(t *testing.T) {
	l := NewLog()
	if state := l.Recover(); len(state) != 0 {
		t.Fatalf("empty log recovered %v", state)
	}
}

func TestRecoverReplaysCommits(t *testing.T) {
	l := NewLog()
	l.AppendCommit(1, 10, []WriteImage{{Obj: 1, Value: 1}, {Obj: 2, Value: 1}})
	l.AppendCommit(2, 20, []WriteImage{{Obj: 1, Value: 2}})
	state := l.Recover()
	if state[1] != 2 || state[2] != 1 {
		t.Fatalf("recovered %v", state)
	}
	if l.RedoLength() != 2 || l.Records() != 2 {
		t.Fatalf("redo=%d records=%d", l.RedoLength(), l.Records())
	}
}

func TestCheckpointTruncatesRedo(t *testing.T) {
	l := NewLog()
	l.AppendCommit(1, 10, []WriteImage{{Obj: 1, Value: 1}})
	l.Checkpoint(15, map[core.ObjectID]int64{1: 1})
	if l.RedoLength() != 0 {
		t.Fatalf("redo tail %d after checkpoint", l.RedoLength())
	}
	l.AppendCommit(2, 20, []WriteImage{{Obj: 2, Value: 2}})
	state := l.Recover()
	if state[1] != 1 || state[2] != 2 {
		t.Fatalf("recovered %v", state)
	}
	if l.Checkpoints() != 1 {
		t.Fatalf("checkpoints = %d", l.Checkpoints())
	}
}

func TestCheckpointSnapshotIsolated(t *testing.T) {
	l := NewLog()
	src := map[core.ObjectID]int64{5: 9}
	l.Checkpoint(1, src)
	src[5] = 99 // mutate the caller's map afterwards
	if l.Recover()[5] != 9 {
		t.Fatal("checkpoint aliased the caller's state map")
	}
}

func TestRecoveryTimeModel(t *testing.T) {
	l := NewLog()
	l.Checkpoint(0, map[core.ObjectID]int64{1: 1, 2: 2})
	l.AppendCommit(1, 10, []WriteImage{{Obj: 3, Value: 3}})
	got := l.RecoveryTime()
	want := 2*sim.Millisecond/10 + 1*sim.Millisecond
	if got != want {
		t.Fatalf("recovery time %v, want %v", got, want)
	}
}

// TestPropRecoverMatchesDirectApplication: replaying the log always
// equals applying the committed write-sets in order, regardless of
// checkpoint placement.
func TestPropRecoverMatchesDirectApplication(t *testing.T) {
	prop := func(ops []uint8, checkpointAfter uint8) bool {
		l := NewLog()
		oracle := make(map[core.ObjectID]int64)
		for i, b := range ops {
			obj := core.ObjectID(b % 8)
			val := int64(i + 1)
			l.AppendCommit(int64(i+1), sim.Time(i), []WriteImage{{Obj: obj, Value: val}})
			oracle[obj] = val
			if i == int(checkpointAfter%16) {
				l.Checkpoint(sim.Time(i), oracle)
			}
		}
		state := l.Recover()
		if len(state) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if state[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
