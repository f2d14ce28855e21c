package txn

import (
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

func newSystem(t *testing.T, mgr func(*sim.Kernel) core.Manager) (*System, *audit.Serializable) {
	t.Helper()
	cfg := Config{CPUPerObj: 10 * sim.Millisecond, NewManager: mgr}
	ser := teeHistory(&cfg)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ser
}

func TestHPWoundedTransactionRestartsAndCommits(t *testing.T) {
	s, ser := newSystem(t, func(k *sim.Kernel) core.Manager { return core.NewTwoPLHP(k) })
	// Low-priority long transaction; high-priority short one arrives
	// mid-flight and wounds it. The victim restarts and still commits
	// before its (generous) deadline.
	low := mkTxn(2, 0, sim.Time(2*sim.Second), []core.ObjectID{1, 2, 3, 4}, core.Write)
	high := mkTxn(1, sim.Time(15*sim.Millisecond), sim.Time(100*sim.Millisecond), []core.ObjectID{1}, core.Write)
	s.Load([]*workload.Txn{low, high})
	sum := s.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	recs := s.Monitor.Records()
	if recs[0].Finish >= recs[1].Finish {
		t.Fatal("wounded low-priority transaction should finish after high")
	}
	if recs[1].Restarts != 1 {
		t.Fatalf("victim restarts = %d, want 1", recs[1].Restarts)
	}
	if s.Monitor.Restarts() != 1 {
		t.Fatalf("monitor restarts = %d", s.Monitor.Restarts())
	}
	if !serializable(ser) {
		t.Fatal("HP history not serializable")
	}
}

func TestHPWoundedPastDeadlineIsMissed(t *testing.T) {
	s, _ := newSystem(t, func(k *sim.Kernel) core.Manager { return core.NewTwoPLHP(k) })
	// The victim (lower priority = later deadline) is wounded at 15ms
	// and must redo its 40ms of work behind the wounder; its 60ms
	// deadline leaves no room.
	low := mkTxn(2, 0, sim.Time(60*sim.Millisecond), []core.ObjectID{1, 2, 3, 4}, core.Write)
	high := mkTxn(1, sim.Time(15*sim.Millisecond), sim.Time(50*sim.Millisecond), []core.ObjectID{1, 2}, core.Write)
	s.Load([]*workload.Txn{low, high})
	sum := s.Run()
	if sum.Committed != 1 || sum.Missed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	recs := s.Monitor.Records()
	if recs[1].Outcome != stats.DeadlineMissed {
		t.Fatalf("victim outcome %v", recs[1].Outcome)
	}
	if recs[1].Finish != sim.Time(60*sim.Millisecond) {
		t.Fatalf("victim aborted at %v, want its 60ms deadline", recs[1].Finish)
	}
}

func TestTimestampRestartsUntilCommit(t *testing.T) {
	s, ser := newSystem(t, func(k *sim.Kernel) core.Manager { return core.NewTimestamp(k) })
	// Two same-object writers interleave; the one whose access arrives
	// late restarts with a fresh timestamp and then succeeds.
	a := mkTxn(1, 0, sim.Time(sim.Second), []core.ObjectID{1, 2}, core.Write)
	b := mkTxn(2, sim.Time(5*sim.Millisecond), sim.Time(sim.Second), []core.ObjectID{2, 1}, core.Write)
	s.Load([]*workload.Txn{a, b})
	sum := s.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	if s.Monitor.Restarts() == 0 {
		t.Fatal("expected at least one TO restart")
	}
	if !serializable(ser) {
		t.Fatal("TO committed history not serializable")
	}
}

func TestDetectResolvesDeadlockBothCommit(t *testing.T) {
	s, ser := newSystem(t, func(k *sim.Kernel) core.Manager { return core.NewTwoPLDetect(k) })
	a := mkTxn(1, 0, sim.Time(2*sim.Second), []core.ObjectID{1, 2}, core.Write)
	b := &workload.Txn{ID: 2, Kind: workload.Update,
		Arrival: sim.Time(5 * sim.Millisecond), Deadline: sim.Time(2 * sim.Second),
		Ops: []workload.Op{{Obj: 2, Mode: core.Write}, {Obj: 1, Mode: core.Write}}}
	s.Load([]*workload.Txn{a, b})
	sum := s.Run()
	if sum.Committed != 2 {
		t.Fatalf("deadlock not resolved to double commit: %+v", sum)
	}
	if s.Monitor.Restarts() == 0 {
		t.Fatal("no restart recorded for the deadlock victim")
	}
	if !serializable(ser) {
		t.Fatal("DD history not serializable")
	}
}

func TestHeavyContentionHPAllProcessed(t *testing.T) {
	s, ser := newSystem(t, func(k *sim.Kernel) core.Manager { return core.NewTwoPLHP(k) })
	var txs []*workload.Txn
	for i := int64(1); i <= 40; i++ {
		objs := []core.ObjectID{core.ObjectID(i % 4), core.ObjectID((i + 1) % 4)}
		txs = append(txs, mkTxn(i, sim.Time(i)*sim.Time(3*sim.Millisecond), sim.Time(i)*sim.Time(3*sim.Millisecond)+sim.Time(400*sim.Millisecond), objs, core.Write))
	}
	s.Load(txs)
	sum := s.Run()
	if sum.Processed != 40 {
		t.Fatalf("processed %d/40", sum.Processed)
	}
	if !serializable(ser) {
		t.Fatal("heavy HP history not serializable")
	}
}

func TestHeavyContentionTOAllProcessed(t *testing.T) {
	s, ser := newSystem(t, func(k *sim.Kernel) core.Manager { return core.NewTimestamp(k) })
	var txs []*workload.Txn
	for i := int64(1); i <= 40; i++ {
		objs := []core.ObjectID{core.ObjectID(i % 4), core.ObjectID((i + 1) % 4)}
		txs = append(txs, mkTxn(i, sim.Time(i)*sim.Time(3*sim.Millisecond), sim.Time(i)*sim.Time(3*sim.Millisecond)+sim.Time(400*sim.Millisecond), objs, core.Write))
	}
	s.Load(txs)
	sum := s.Run()
	if sum.Processed != 40 {
		t.Fatalf("processed %d/40", sum.Processed)
	}
	if !serializable(ser) {
		t.Fatal("heavy TO history not serializable")
	}
}
