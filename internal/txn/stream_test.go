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

// TestTimelineOnlyRunTakesNoSamples pins that only an exported registry
// is sampled: a run with a Timeline and no Metrics attaches the
// collector's probe registry for live values, so the in-flight gauge
// reaches the rows, but never snapshots it.
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
		t.Fatalf("timeline-only run took %d registry samples, want 0", n)
	}
	var inflight int64
	for _, r := range tl.Rows() {
		inflight += r.InFlight
	}
	if inflight == 0 {
		t.Fatal("no window saw a transaction in flight: probes not live")
	}
}
