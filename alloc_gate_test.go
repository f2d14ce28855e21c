package rtlock

// Allocation-regression gate for the full single-site fast path. The
// per-package gates (internal/sim, internal/journal) pin their hot
// loops at exactly zero steady-state allocations; a whole run cannot be
// zero — each transaction builds its process, its state and its
// read/write sets, and a fresh system builds its pools (worker
// goroutines are reused, so no transaction pays for one) — so this gate
// pins the end-to-end budget instead. The budget is ~2x the measured
// cost (15 allocs per transaction at this run size, 12.7 once a long
// run has amortized the set-up), tight enough that an accidental
// per-operation or per-record allocation (several per transaction)
// blows through it immediately.

import (
	"runtime"
	"testing"
)

// runAllocsPerTx runs the configuration twice — once to warm the
// runtime — and returns the second run's heap allocations divided by
// the transaction count.
func runAllocsPerTx(t *testing.T, cfg SingleSiteConfig) float64 {
	t.Helper()
	if _, err := RunSingleSite(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunSingleSite(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(cfg.Workload.Count)
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
		got := runAllocsPerTx(t, tc.cfg)
		t.Logf("%s: %.1f allocs/tx", tc.name, got)
		if got > maxAllocsPerTx {
			t.Errorf("%s: %.1f allocs per transaction exceeds the gate of %d", tc.name, got, maxAllocsPerTx)
		}
	}
}
