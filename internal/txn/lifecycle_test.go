package txn

import (
	"errors"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/timeline"
	"rtlock/internal/workload"
)

var errProtocol = errors.New("protocol fault")

// faultyManager is a ceiling manager whose every lock request fails
// with an error that is neither a deadline, a restart nor a shutdown.
type faultyManager struct{ core.Manager }

func (faultyManager) Acquire(*sim.Proc, *core.TxState, core.ObjectID, core.Mode) error {
	return errProtocol
}

// TestUnexpectedErrorIsRecordedMiss: a transaction ending with an
// unexpected error is a deadline miss like any other — journaled with
// KDeadlineMiss and counted under reason="deadline" — as in the
// cluster.
func TestUnexpectedErrorIsRecordedMiss(t *testing.T) {
	reg := metrics.New()
	jrn := journal.New(0, "faulty-manager")
	s, err := NewSystem(Config{
		CPUPerObj:  10 * sim.Millisecond,
		NewManager: func(k *sim.Kernel) core.Manager { return faultyManager{core.NewCeiling(k)} },
		Journal:    jrn,
		Timeline:   timeline.New(timeline.Config{Window: sim.Second}, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Load([]*workload.Txn{mkTxn(1, 0, sim.Time(sim.Second), []core.ObjectID{3}, core.Write)})
	if sum := s.Run(); sum.Missed != 1 {
		t.Fatalf("summary %+v, want one miss", sum)
	}
	if rec := s.Monitor.Records()[0]; rec.Outcome != stats.DeadlineMissed {
		t.Fatalf("record %+v, want a deadline miss", rec)
	}
	misses := 0
	for _, r := range jrn.Records() {
		if r.Kind == journal.KDeadlineMiss && r.Tx == 1 {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d KDeadlineMiss records for tx 1, want 1", misses)
	}
	if n := metrics.Find[metrics.Counter](reg, "txn_deadline_misses_total", metrics.L("reason", "deadline")).Value(); n != 1 {
		t.Fatalf(`txn_deadline_misses_total{reason="deadline"} = %d, want 1`, n)
	}
}
