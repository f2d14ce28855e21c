package rtlock_test

// Determinism under fault injection: an attached fault plan is part of
// the configuration, so repeated runs of the same (seed, config, plan)
// must still produce byte-identical journals — crashes, retries,
// resolution and failover included — and an attached-but-empty plan
// must reproduce the fault-free journal exactly.

import (
	"runtime"
	"testing"

	"rtlock"
)

// faultedJournal runs one audited distributed simulation under a
// generated fault plan and returns its journal.
func faultedJournal(t *testing.T, global bool, seed int64) *rtlock.Journal {
	t.Helper()
	// Mean interarrival 30ms × 120 transactions: fault windows land
	// inside the first ~3.6s of simulated time.
	plan, err := rtlock.GenerateFaultPlan(seed, rtlock.FaultGenParams{
		Sites:    3,
		Horizon:  120 * 30 * int64(rtlock.Millisecond),
		Severity: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("generated plan is empty at severity 0.6")
	}
	res, err := rtlock.RunDistributed(rtlock.DistributedConfig{
		Global:   global,
		Audit:    true,
		Journal:  true,
		Faults:   plan,
		Workload: rtlock.WorkloadConfig{Seed: seed, Count: 120},
	})
	if err != nil {
		t.Fatalf("global=%t: %v", global, err)
	}
	for _, v := range res.Violations {
		t.Errorf("global=%t: %s", global, v)
	}
	if res.Journal == nil || res.Journal.Len() == 0 {
		t.Fatalf("global=%t: empty journal", global)
	}
	return res.Journal
}

func TestJournalDeterminismUnderFaults(t *testing.T) {
	for _, global := range []bool{true, false} {
		base := faultedJournal(t, global, 42)
		for run := 2; run <= 3; run++ {
			j := faultedJournal(t, global, 42)
			if !rtlock.JournalsEqual(base, j) {
				t.Fatalf("global=%t: faulted run %d diverged:\n%s",
					global, run, rtlock.JournalDiff(base, j))
			}
		}
	}
}

func TestJournalDeterminismUnderFaultsAcrossGOMAXPROCS(t *testing.T) {
	withP := func(p int, f func() *rtlock.Journal) *rtlock.Journal {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
		return f()
	}
	for _, global := range []bool{true, false} {
		j1 := withP(1, func() *rtlock.Journal { return faultedJournal(t, global, 7) })
		j8 := withP(8, func() *rtlock.Journal { return faultedJournal(t, global, 7) })
		if !rtlock.JournalsEqual(j1, j8) {
			t.Fatalf("global=%t: GOMAXPROCS changed a faulted journal:\n%s",
				global, rtlock.JournalDiff(j1, j8))
		}
	}
}

// TestEmptyFaultPlanEquivalence proves the fault machinery is inert
// when the plan is empty: attaching one reproduces the fault-free
// journal byte for byte, config hash included.
func TestEmptyFaultPlanEquivalence(t *testing.T) {
	for _, global := range []bool{true, false} {
		run := func(faulted bool) *rtlock.Journal {
			cfg := rtlock.DistributedConfig{
				Global:   global,
				Audit:    true,
				Journal:  true,
				Workload: rtlock.WorkloadConfig{Seed: 11, Count: 120},
			}
			if faulted {
				cfg.Faults = &rtlock.FaultPlan{}
			}
			res, err := rtlock.RunDistributed(cfg)
			if err != nil {
				t.Fatalf("global=%t: %v", global, err)
			}
			return res.Journal
		}
		plain, attached := run(false), run(true)
		if plain.Hash() != attached.Hash() {
			t.Fatalf("global=%t: empty plan perturbed the journal:\n%s",
				global, rtlock.JournalDiff(plain, attached))
		}
	}
}
