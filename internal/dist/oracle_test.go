package dist

import (
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// oracleDiverges pins the per-transaction fields on which the
// single-site system and the one-site cluster are known to differ for
// TestSingleSiteOracle's load. DESIGN.md ("The N=1 oracle") names each
// with its first differing transaction. It may shrink, never grow.
var oracleDiverges = map[string]bool{}

// TestSingleSiteOracle runs one pre-generated protocol C load through
// txn.System with no I/O and through the local mode's one-site cluster
// with no communication delay, and compares every transaction's
// outcome, finish time, blocking and restarts: the differential oracle
// the single-site/N=1 fold is accepted by.
func TestSingleSiteOracle(t *testing.T) {
	const cpu = 10 * sim.Millisecond
	c, err := NewCluster(Config{Mode: Local, Sites: 1, Objects: 200, CommDelay: 0, CPUPerObj: cpu})
	if err != nil {
		t.Fatal(err)
	}
	load, err := workload.Generate(workload.Params{
		Seed: 7, Catalog: c.Catalog, Count: 200, MeanInterarrival: 40 * sim.Millisecond,
		MeanSize: 6, ReadOnlyFrac: 0.5, SlackMin: 2, SlackMax: 6, PerObjCost: cpu,
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := core.Lookup(core.ProtoCeiling)
	if err != nil {
		t.Fatal(err)
	}
	s, err := txn.NewSystem(txn.Config{CPUPerObj: cpu, IOPerObj: 0, CPUDiscipline: row.Discipline, NewManager: row.New})
	if err != nil {
		t.Fatal(err)
	}
	s.Load(load)
	sum := s.Run()
	c.Load(load)
	c.Run()
	if sum.Committed == 0 || sum.Missed == 0 || sum.AvgBlocked == 0 {
		t.Fatalf("the load must commit, miss and block to mean something: %+v", sum)
	}

	single := map[int64]stats.TxRecord{}
	for _, r := range s.Monitor.Records() {
		single[r.ID] = r
	}
	first := map[string]int64{} // field -> first (lowest-id) transaction differing on it
	for _, b := range c.Monitor.Records() {
		a, ok := single[b.ID]
		if !ok {
			t.Fatalf("tx %d finished in the cluster only", b.ID)
		}
		for f, differs := range map[string]bool{
			"Outcome":      a.Outcome != b.Outcome,
			"Finish":       a.Finish != b.Finish,
			"Blocked":      a.Blocked != b.Blocked,
			"BlockedCount": a.BlockedCount != b.BlockedCount,
			"Restarts":     a.Restarts != b.Restarts,
		} {
			if at, seen := first[f]; differs && (!seen || b.ID < at) {
				first[f] = b.ID
			}
		}
	}
	if len(single) != len(load) || len(c.Monitor.Records()) != len(load) {
		t.Fatalf("records: single %d, cluster %d, load %d", len(single), len(c.Monitor.Records()), len(load))
	}
	for f, id := range first {
		if !oracleDiverges[f] {
			t.Errorf("new divergence: %s first differs at tx %d", f, id)
		}
	}
	for f := range oracleDiverges {
		if _, still := first[f]; !still {
			t.Errorf("%s no longer diverges: drop it from oracleDiverges and DESIGN.md", f)
		}
	}
}
