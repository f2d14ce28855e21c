package rtlock

// Allocation-regression gates for full runs. The per-package gates
// (internal/sim, internal/journal, internal/netsim) pin their hot
// loops at exactly zero steady-state allocations; a whole run cannot be
// zero — each transaction builds its process, its state and its
// read/write sets, and a fresh system builds its pools (worker
// goroutines are reused, so no transaction pays for one) — so these
// gates pin the end-to-end budget instead. The single-site budget is
// ~2.5x the measured cost (11.6 allocs per transaction at this run size,
// 7.0 at the margin of a long run: see TestOneSiteAllocParity in
// internal/dist), tight enough that an accidental per-operation or
// per-record allocation (several per transaction) blows through it
// immediately.

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
	const maxAllocsPerTx = 30
	for _, tc := range []struct {
		name     string
		cfg      SingleSiteConfig
		maxBytes float64 // per transaction, 0 = unchecked
	}{
		{"plain", SingleSiteConfig{Workload: WorkloadConfig{Count: 200}}, 0},
		{"journal", SingleSiteConfig{Journal: true, Workload: WorkloadConfig{Count: 200}}, 0},
		{"audit", SingleSiteConfig{Audit: true, Workload: WorkloadConfig{Count: 2000}}, 4 << 10},
		{"timeline", SingleSiteConfig{TimelineWindow: 10 * Second, MaxRawRecords: 64,
			Workload: WorkloadConfig{Count: 200}}, 0},
	} {
		cfg := tc.cfg
		got, bytes := runAllocsPerTx(t, cfg.Workload.Count, func() error {
			_, err := RunSingleSite(cfg)
			return err
		})
		t.Logf("%s: %.1f allocs/tx, %.0f B/tx", tc.name, got, bytes)
		if got > maxAllocsPerTx {
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %d", tc.name, got, maxAllocsPerTx)
		}
		if tc.maxBytes > 0 && !raceBuild && bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per transaction exceeds the gate of %.0f", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestDistributedRunAllocGate is the same budget for the five
// distributed modes, each capped at about 1.25x its measured cost at
// this run size (local 32.2, global 14.2, shard 18.1, quorum 21.1,
// primary 8.2 allocs/tx): message delivery, 2PC and quorum rounds must
// not grow a per-message allocation back, nor the pooled per-attempt
// state (runs, pin states, rounds) a per-transaction one.
func TestDistributedRunAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
		max  float64
	}{
		{"local", DistributedConfig{}, 40},
		{"global", DistributedConfig{Global: true}, 18},
		{"shard", DistributedConfig{Placement: "shard", Sites: 4}, 23},
		{"quorum", DistributedConfig{Placement: "quorum", Sites: 4}, 26},
		{"primary", DistributedConfig{Placement: "primary", Sites: 4}, 10},
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
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %.0f", tc.name, got, tc.max)
		}
	}
}

// TestExploreScheduleAllocGate caps the bytes one explored schedule
// allocates. Each schedule builds, runs and tears down a whole small
// system, so per-run construction is the cost: a run holds no
// response-time sketch unless a retention cap can read it, and these
// tiny runs measure 56–85 KB per schedule; two 64 KB sketches per run
// would put them near 200 KB, past the 128 KB gate. Race builds skip
// the byte budget (see race_test.go).
func TestExploreScheduleAllocGate(t *testing.T) {
	const schedules, maxBytes = 60, 128 << 10
	opts := ExploreOptions{Schedules: schedules, Workers: 1, MaxDepth: 24, Branch: 3}
	for _, tc := range []struct {
		name string
		cfg  ExploreConfig
	}{
		{"single/HP", ExploreConfig{Protocol: TwoPLHighPriority}},
		{"single/C", ExploreConfig{Protocol: Ceiling}},
		{"faults-local", ExploreConfig{Faults: true}},
	} {
		cfg := tc.cfg
		cfg.Seed = 1
		cfg.Options = opts
		allocs, bytes := runAllocsPerTx(t, schedules, func() error {
			_, err := Explore(cfg)
			return err
		})
		t.Logf("%s: %.0f allocs/schedule, %.0f B/schedule", tc.name, allocs, bytes)
		if !raceBuild && bytes > maxBytes {
			t.Errorf("%s: %.0f bytes per schedule exceeds the gate of %d", tc.name, bytes, maxBytes)
		}
	}
}
