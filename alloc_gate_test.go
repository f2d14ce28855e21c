package rtlock

// Allocation-regression gates for full runs. The per-package gates
// (internal/sim, internal/journal, internal/netsim) pin their hot
// loops at exactly zero steady-state allocations; a whole run cannot be
// zero — each transaction allocates its process (its run, state, access
// sets, arrival and the generator's arenas are pooled, static or shared
// by a chunk), and a fresh system builds its pools (worker goroutines are
// reused, so no transaction pays for one) — so these gates pin the
// end-to-end budget instead. Each case is capped at about 1.25x its
// measured cost at this run size, where construction still weighs
// (plain 4.4 allocs per transaction; at the margin of a long run it is
// 1.02: see TestSystemMarginalAllocs in internal/dist), tight enough
// that an accidental per-operation or per-record allocation (several
// per transaction) blows through it immediately.

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
// allocations. Race builds skip the byte budgets (see race_test.go).
func TestSingleSiteRunAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      SingleSiteConfig
		max      float64 // allocations per transaction
		maxBytes float64 // per transaction, 0 = unchecked
	}{
		{"plain", SingleSiteConfig{Workload: WorkloadConfig{Count: 200}}, 5.5, 0},
		{"journal", SingleSiteConfig{Journal: true, Workload: WorkloadConfig{Count: 200}}, 7.5, 0},
		{"audit", SingleSiteConfig{Audit: true, Workload: WorkloadConfig{Count: 2000}}, 4.6, 1600},
		{"timeline", SingleSiteConfig{TimelineWindow: 10 * Second, MaxRawRecords: 64,
			Workload: WorkloadConfig{Count: 200}}, 6.5, 0},
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
// this run size (local 16.3, global 6.7, shard 9.5, quorum 11.1,
// primary 2.8 allocs/tx): message delivery, pin steps, 2PC and quorum
// rounds must not grow a per-message allocation back, nor the pooled
// per-attempt state (runs, pin states, rounds, installers) a
// per-transaction one. At the margin of a long run each mode costs
// little more than its processes (TestClusterMarginalAllocs in
// internal/dist).
func TestDistributedRunAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
		max  float64
	}{
		{"local", DistributedConfig{}, 20.5},
		{"global", DistributedConfig{Global: true}, 8.4},
		{"shard", DistributedConfig{Placement: "shard", Sites: 4}, 12},
		{"quorum", DistributedConfig{Placement: "quorum", Sites: 4}, 14},
		{"primary", DistributedConfig{Placement: "primary", Sites: 4}, 3.5},
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
// rebuilding, so a schedule pays for what is new in it: its processes,
// the journal-only process names, its decision trace and its outcome.
// These runs measure 69–77 allocations (71–80 under -race) and
// 7.7–9.0 KB per schedule, rig construction amortized over the sixty;
// each case's count is capped at about 1.25x its measurement and the
// bytes at 11 KB. A rig part
// rebuilt per schedule again (a lock manager, an auditor set, the
// cluster) costs tens of allocations and kilobytes and fails the gate.
// Race builds skip the byte budget (see race_test.go).
func TestExploreScheduleAllocGate(t *testing.T) {
	const schedules, maxBytes = 60, 11 << 10
	opts := ExploreOptions{Schedules: schedules, Workers: 1, MaxDepth: 24, Branch: 3}
	for _, tc := range []struct {
		name string
		cfg  ExploreConfig
		max  float64 // allocations per schedule
	}{
		{"single/HP", ExploreConfig{Protocol: TwoPLHighPriority}, 86},
		{"single/C", ExploreConfig{Protocol: Ceiling}, 88},
		{"faults-local", ExploreConfig{Faults: true}, 96},
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
