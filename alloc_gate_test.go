package rtlock

// Allocation-regression gates for full runs. The per-package gates
// (internal/sim, internal/journal, internal/netsim) pin their hot
// loops at exactly zero steady-state allocations; a whole run cannot be
// zero — each transaction builds its process, its state and its
// read/write sets, and a fresh system builds its pools (worker
// goroutines are reused, so no transaction pays for one) — so these
// gates pin the end-to-end budget instead. The single-site budget is
// ~2x the measured cost (15 allocs per transaction at this run size,
// 12.7 once a long run has amortized the set-up), tight enough that an
// accidental per-operation or per-record allocation (several per
// transaction) blows through it immediately.

import (
	"runtime"
	"testing"
)

// runAllocsPerTx runs a configuration twice — once to warm the runtime
// — and returns the second run's heap allocations divided by the
// transaction count.
func runAllocsPerTx(t *testing.T, count int, run func() error) float64 {
	t.Helper()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(count)
}

func TestSingleSiteRunAllocGate(t *testing.T) {
	const maxAllocsPerTx = 30
	for _, tc := range []struct {
		name string
		cfg  SingleSiteConfig
	}{
		{"plain", SingleSiteConfig{Workload: WorkloadConfig{Count: 200}}},
		{"journal", SingleSiteConfig{Journal: true, Workload: WorkloadConfig{Count: 200}}},
		{"timeline", SingleSiteConfig{TimelineWindow: 10 * Second, MaxRawRecords: 64,
			Workload: WorkloadConfig{Count: 200}}},
	} {
		cfg := tc.cfg
		got := runAllocsPerTx(t, cfg.Workload.Count, func() error {
			_, err := RunSingleSite(cfg)
			return err
		})
		t.Logf("%s: %.1f allocs/tx", tc.name, got)
		if got > maxAllocsPerTx {
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %d", tc.name, got, maxAllocsPerTx)
		}
	}
}

// TestDistributedRunAllocGate is the same budget for the five
// distributed modes, each capped at about 1.5x its measured cost at
// this run size (local 60.4, global 30.4, shard 43.4, quorum 47.8,
// primary 20.1 allocs/tx): message delivery, 2PC and quorum rounds must
// not grow a per-message allocation back.
func TestDistributedRunAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
		max  float64
	}{
		{"local", DistributedConfig{}, 90},
		{"global", DistributedConfig{Global: true}, 45},
		{"shard", DistributedConfig{Placement: "shard", Sites: 4}, 65},
		{"quorum", DistributedConfig{Placement: "quorum", Sites: 4}, 72},
		{"primary", DistributedConfig{Placement: "primary", Sites: 4}, 30},
	} {
		cfg := tc.cfg
		cfg.Workload = WorkloadConfig{Count: 200}
		if cfg.Placement != "" {
			cfg.Workload.LocalityProb = 0.7
		}
		got := runAllocsPerTx(t, cfg.Workload.Count, func() error {
			_, err := RunDistributed(cfg)
			return err
		})
		t.Logf("%s: %.1f allocs/tx", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %.0f", tc.name, got, tc.max)
		}
	}
}
