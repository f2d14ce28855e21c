package rtlock

// Allocation-regression gates for full runs. The per-package gates
// (internal/sim, internal/journal, internal/netsim) pin their hot
// loops at exactly zero steady-state allocations; a whole run cannot be
// zero — a fresh system builds its pools (the runs its processes live
// in, states, access-set scratch, worker goroutines) and the generator
// its arenas, one per 64 transactions, while a transaction itself takes
// all of these from a pool or a chunk — so these gates pin the
// end-to-end budget instead. Each case is capped at about 1.25x its
// measured cost at this run size, where construction is nearly all of
// it (plain 2.4 allocs per transaction; at the margin of a long run it
// is 0.024: see TestSystemMarginalAllocs in internal/dist), tight
// enough that an accidental per-transaction, per-operation or
// per-record allocation blows through it immediately.

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// runAllocsPerTx runs a configuration twice — once to warm the runtime
// — and returns the second run's heap allocations and allocated bytes,
// each divided by the transaction count. Both runs use one processor
// and the collector is paused for the second, so buffers pooled by the
// first (sync.Pool) are reused: which processor a Get lands on, and
// whether a collection empties the pool first, would otherwise decide
// whether the run pays to regrow them.
func runAllocsPerTx(t *testing.T, count int, run func() error) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(count),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(count)
}

// raceBuild is set under the race detector (race_test.go).
var raceBuild bool

// TestSingleSiteRunAllocGate also caps bytes per transaction where a
// case has a budget: an audit-only run checks each journal record as it
// is written and keeps none, so retaining the journal again (tens of
// kilobytes per transaction) shows up here even though it adds few
// allocations; a journaled run (4.5 KB per transaction) keeps only the
// records' canonical encoding, so keeping record structs again (about
// 23 KB) fails its budget. Race builds skip the byte budgets (see
// race_test.go).
func TestSingleSiteRunAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      SingleSiteConfig
		max      float64 // allocations per transaction
		maxBytes float64 // per transaction, 0 = unchecked
	}{
		{"plain", SingleSiteConfig{Workload: WorkloadConfig{Count: 200}}, 3, 0},
		{"journal", SingleSiteConfig{Journal: true, Workload: WorkloadConfig{Count: 200}}, 3.3, 5600},
		{"audit", SingleSiteConfig{Audit: true, Workload: WorkloadConfig{Count: 2000}}, 0.9, 1500},
		{"timeline", SingleSiteConfig{TimelineWindow: 10 * Second, MaxRawRecords: 64,
			Workload: WorkloadConfig{Count: 200}}, 4.1, 0},
	} {
		cfg := tc.cfg
		got, bytes := runAllocsPerTx(t, cfg.Workload.Count, func() error {
			_, err := RunSingleSite(cfg)
			return err
		})
		t.Logf("%s: %.1f allocs/tx, %.0f B/tx", tc.name, got, bytes)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %.1f", tc.name, got, tc.max)
		}
		if tc.maxBytes > 0 && !raceBuild && bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per transaction exceeds the gate of %.0f", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestDistributedRunAllocGate is the same budget for the five
// distributed modes, each capped at about 1.25x its measured cost at
// this run size (local 11.2, global 4.8, shard 7.7, quorum 9.2,
// primary 1.9 allocs/tx; up to 0.3 more under -race): message
// delivery, pin steps, 2PC and quorum rounds must not grow a
// per-message allocation back, nor the pooled per-attempt state (runs
// and installers with their processes, pin states, rounds) a
// per-transaction one. At the margin of a long run each mode costs a
// small fraction of an allocation per transaction
// (TestClusterMarginalAllocs in internal/dist).
func TestDistributedRunAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
		max  float64
	}{
		{"local", DistributedConfig{}, 14},
		{"global", DistributedConfig{Global: true}, 6.2},
		{"shard", DistributedConfig{Placement: "shard", Sites: 4}, 9.8},
		{"quorum", DistributedConfig{Placement: "quorum", Sites: 4}, 11.7},
		{"primary", DistributedConfig{Placement: "primary", Sites: 4}, 2.4},
	} {
		cfg := tc.cfg
		cfg.Workload = WorkloadConfig{Count: 200}
		if cfg.Placement != "" {
			cfg.Workload.LocalityProb = 0.7
		}
		got, _ := runAllocsPerTx(t, cfg.Workload.Count, func() error {
			_, err := RunDistributed(cfg)
			return err
		})
		t.Logf("%s: %.1f allocs/tx", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %.1f", tc.name, got, tc.max)
		}
	}
}

// TestExploreScheduleAllocGate caps the allocations and bytes of one
// explored schedule. Each exploration worker runs its schedules on a rig
// — kernel, processor, lock manager, transaction engine or cluster,
// auditors and journal — that it resets between schedules instead of
// rebuilding, so a schedule pays for what is new in it: its decision
// trace, its outcome (the journal hash, the verdict) and, in a faulted
// cluster, its fault plan. Its transactions and installers run in the
// rig's pooled runs, their processes living in them, its message
// servers restart on the processes they keep, its load's arrival chain
// lives in the engine, and journal-only names come from chunks the rig
// keeps. The auditors are teed into the journal and check a schedule as
// it is written, and its hash reads the encoding the journal already
// holds. These runs measure 15–32 allocations (up to one more under
// -race) and 2.6–4.8 KB per schedule, rig construction amortized over
// the sixty; each case's count and the bytes are capped at about 1.25x
// the measurement. A process allocated per transaction again costs
// about 24 allocations per schedule, a name built per process about as
// many, and a rig part rebuilt per schedule (a lock manager, an auditor
// set, the cluster) tens of allocations and kilobytes: each fails the
// gate. An arrival chain per load or a process per message server per
// run (2 and 3) would not; TestRerunLoadAllocFree (internal/txn) and
// TestServerRestartAllocFree (internal/netsim) catch those. Race builds skip the byte budget (see
// race_test.go).
func TestExploreScheduleAllocGate(t *testing.T) {
	const schedules, maxBytes = 60, 6144 // 6 KB
	opts := ExploreOptions{Schedules: schedules, Workers: 1, MaxDepth: 24, Branch: 3}
	for _, tc := range []struct {
		name string
		cfg  ExploreConfig
		max  float64 // allocations per schedule
	}{
		{"single/HP", ExploreConfig{Protocol: TwoPLHighPriority}, 19},
		{"single/C", ExploreConfig{Protocol: Ceiling}, 20},
		{"faults-local", ExploreConfig{Faults: true}, 40},
	} {
		cfg := tc.cfg
		cfg.Seed = 1
		cfg.Options = opts
		allocs, bytes := runAllocsPerTx(t, schedules, func() error {
			_, err := Explore(cfg)
			return err
		})
		t.Logf("%s: %.0f allocs/schedule, %.0f B/schedule", tc.name, allocs, bytes)
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations per schedule exceeds the gate of %.0f", tc.name, allocs, tc.max)
		}
		if !raceBuild && bytes > maxBytes {
			t.Errorf("%s: %.0f bytes per schedule exceeds the gate of %d", tc.name, bytes, maxBytes)
		}
	}
}

// TestJournalRetainsEncoding caps what a kept journal costs to hold: a
// journal keeps only its canonical binary encoding, about 14 B a
// record on this run, so a journaled run's Result retains at most 20 B
// of heap per record. A journal that keeps record structs again (64 B
// each before growth slack) fails it.
func TestJournalRetainsEncoding(t *testing.T) {
	const maxPerRecord = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunSingleSite(SingleSiteConfig{Protocol: Ceiling, Journal: true, Workload: WorkloadConfig{Count: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	// Two collections: the first moves pooled buffers to the pools'
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := res.Journal.Len()
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	runtime.KeepAlive(res)
	t.Logf("%d records, %.1f B of heap retained per record", n, per)
	if per > maxPerRecord {
		t.Errorf("a journaled run retains %.1f B per record; the gate is %d", per, maxPerRecord)
	}
}
