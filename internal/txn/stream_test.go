package txn

import (
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/timeline"
	"rtlock/internal/workload"
)

func streamLoadParams(count int) workload.Params {
	cat, err := db.NewCatalog(1, 200)
	if err != nil {
		panic(err)
	}
	return workload.Params{
		Seed:             7,
		Count:            count,
		MeanInterarrival: 4 * sim.Millisecond,
		MeanSize:         3,
		ReadOnlyFrac:     0.25,
		SlackMin:         2,
		SlackMax:         6,
		PerObjCost:       sim.Millisecond,
		Catalog:          cat,
	}
}

func runWithLoader(t *testing.T, load func(s *System, p workload.Params)) *journal.Journal {
	t.Helper()
	s, err := NewSystem(Config{
		CPUPerObj:     sim.Millisecond,
		CPUDiscipline: sim.PreemptivePriority,
		NewManager:    func(k *sim.Kernel) core.Manager { return core.NewCeiling(k) },
	})
	if err != nil {
		t.Fatal(err)
	}
	j := journal.New(7, "stream-vs-load")
	s.K.SetJournal(j, 0)
	load(s, streamLoadParams(400))
	s.Run()
	return j
}

// TestLoadStreamJournalsIdentically pins that streaming arrivals one
// event at a time produces the exact event interleaving — and thus the
// exact journal — of preloading the whole load, so callers can switch
// loaders without invalidating golden journals.
func TestLoadStreamJournalsIdentically(t *testing.T) {
	preloaded := runWithLoader(t, func(s *System, p workload.Params) {
		txs, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		s.Load(txs)
	})
	streamed := runWithLoader(t, func(s *System, p workload.Params) {
		src, err := workload.NewStream(p)
		if err != nil {
			t.Fatal(err)
		}
		s.LoadStream(src)
	})
	if preloaded.Len() == 0 {
		t.Fatal("empty journal")
	}
	if !journal.Equal(preloaded, streamed) {
		t.Fatalf("streamed journal (%d records) differs from preloaded (%d records)",
			streamed.Len(), preloaded.Len())
	}
}

// TestArrivalTieFiresAsPreloaded pins where a chained arrival fires
// among simultaneous events. tx3 arrives at the instant tx1's CPU burst
// ends; its arrival was scheduled from tx2's, after that burst's end,
// yet it fires first, as it did when every arrival was scheduled before
// the run: tx3 arrives before tx1 commits.
func TestArrivalTieFiresAsPreloaded(t *testing.T) {
	s, err := NewSystem(Config{
		CPUPerObj:     10 * sim.Millisecond,
		CPUDiscipline: sim.PreemptivePriority,
		NewManager:    func(k *sim.Kernel) core.Manager { return core.NewCeiling(k) },
	})
	if err != nil {
		t.Fatal(err)
	}
	j := journal.New(1, "arrival-tie")
	s.K.SetJournal(j, 0)
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	s.Load([]*workload.Txn{
		mkTxn(1, 0, ms(100), []core.ObjectID{1}, core.Write),
		mkTxn(2, ms(5), ms(200), []core.ObjectID{2}, core.Write),
		mkTxn(3, ms(10), ms(300), []core.ObjectID{3}, core.Write),
	})
	s.Run()
	arrive, commit := -1, -1
	for i, r := range j.Records() {
		switch {
		case r.Kind == journal.KArrive && r.Tx == 3:
			arrive = i
		case r.Kind == journal.KCommit && r.Tx == 1:
			if r.At != int64(ms(10)) {
				t.Fatalf("tx1 committed at %d, want the tie at %d", r.At, ms(10))
			}
			commit = i
		}
	}
	if arrive < 0 || commit < 0 || arrive > commit {
		t.Fatalf("tx3 arrive at record %d, tx1 commit at %d: want the arrival first", arrive, commit)
	}
}

// TestTimelineOnlyRunTakesNoSamples pins that a timeline-only run
// stores no registry snapshots: a collector built without an exported
// registry attaches its private probe registry for live values, so the
// in-flight gauge reaches the rows, but no row carries a snapshot.
func TestTimelineOnlyRunTakesNoSamples(t *testing.T) {
	tl := timeline.New(timeline.Config{Window: 100 * sim.Millisecond}, nil)
	s, err := NewSystem(Config{
		CPUPerObj:  sim.Millisecond,
		NewManager: func(k *sim.Kernel) core.Manager { return core.NewCeiling(k) },
		Timeline:   tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.K.Metrics() != tl.Probes() {
		t.Fatal("timeline probe registry not attached to the kernel")
	}
	txs, err := workload.Generate(streamLoadParams(400))
	if err != nil {
		t.Fatal(err)
	}
	s.Load(txs)
	s.Run()
	if n := tl.Probes().Samples(); n != 0 {
		t.Fatalf("timeline-only run took %d registry snapshots, want 0", n)
	}
	var inflight int64
	for _, r := range tl.Rows() {
		if r.Series != nil {
			t.Fatalf("window %d stored a registry snapshot", r.Window)
		}
		inflight += r.InFlight
	}
	if inflight == 0 {
		t.Fatal("no window saw a transaction in flight: probes not live")
	}
}
