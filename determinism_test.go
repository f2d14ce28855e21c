package rtlock_test

// Determinism property tests: the replay journal of a run is a complete
// transcript of kernel-level events, so byte-identical journals across
// repeated runs of the same (seed, config) prove the simulation is
// deterministic. Every protocol and both distributed architectures are
// checked, both across repeated runs and across GOMAXPROCS settings
// (the kernel executes one process at a time regardless of P).

import (
	"bytes"
	"runtime"
	"testing"

	"rtlock"
	"rtlock/internal/core"
)

var allProtocols = core.Letters()

// singleJournal runs one audited single-site simulation and returns its
// journal, failing the test on invariant violations.
func singleJournal(t *testing.T, proto rtlock.Protocol, seed int64) *rtlock.Journal {
	t.Helper()
	res, err := rtlock.RunSingleSite(rtlock.SingleSiteConfig{
		Protocol: proto,
		Audit:    true,
		Journal:  true,
		Workload: rtlock.WorkloadConfig{Seed: seed, Count: 120},
	})
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s: %s", proto, v)
	}
	if res.Journal == nil || res.Journal.Len() == 0 {
		t.Fatalf("%s: empty journal", proto)
	}
	return res.Journal
}

// distJournal runs one audited distributed simulation and returns its
// journal.
func distJournal(t *testing.T, global bool, seed int64) *rtlock.Journal {
	t.Helper()
	res, err := rtlock.RunDistributed(rtlock.DistributedConfig{
		Global:   global,
		Audit:    true,
		Journal:  true,
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

// placedPolicies are the placement policies with their own execution
// models (full replication reuses the local-ceiling path tested above).
var placedPolicies = []string{"shard", "quorum", "primary"}

// placedJournal runs one audited placement simulation and returns its
// journal.
func placedJournal(t *testing.T, placement string, seed int64) *rtlock.Journal {
	t.Helper()
	res, err := rtlock.RunDistributed(rtlock.DistributedConfig{
		Placement: placement,
		Sites:     4,
		Audit:     true,
		Journal:   true,
		Workload:  rtlock.WorkloadConfig{Seed: seed, Count: 120, LocalityProb: 0.7},
	})
	if err != nil {
		t.Fatalf("placement=%s: %v", placement, err)
	}
	for _, v := range res.Violations {
		t.Errorf("placement=%s: %s", placement, v)
	}
	if res.Journal == nil || res.Journal.Len() == 0 {
		t.Fatalf("placement=%s: empty journal", placement)
	}
	return res.Journal
}

// TestJournalDeterminismSingleSite checks that three runs of every
// protocol at the same (seed, config) produce byte-identical journals.
func TestJournalDeterminismSingleSite(t *testing.T) {
	for _, proto := range allProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			base := singleJournal(t, proto, 42)
			for run := 2; run <= 3; run++ {
				j := singleJournal(t, proto, 42)
				if j.Hash() != base.Hash() || !rtlock.JournalsEqual(base, j) {
					t.Fatalf("run %d diverged: %s", run, rtlock.JournalDiff(base, j))
				}
			}
		})
	}
}

// TestJournalDeterminismDistributed is the distributed analogue, for
// both the global-ceiling-manager and local-ceiling architectures.
func TestJournalDeterminismDistributed(t *testing.T) {
	for _, mode := range []struct {
		name   string
		global bool
	}{{"global", true}, {"local", false}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			base := distJournal(t, mode.global, 42)
			for run := 2; run <= 3; run++ {
				j := distJournal(t, mode.global, 42)
				if j.Hash() != base.Hash() || !rtlock.JournalsEqual(base, j) {
					t.Fatalf("run %d diverged: %s", run, rtlock.JournalDiff(base, j))
				}
			}
		})
	}
}

// TestJournalDeterminismAcrossGOMAXPROCS re-runs every configuration
// under GOMAXPROCS=1 and GOMAXPROCS=8 and requires identical journals:
// scheduling must come from the simulated clock, never from the Go
// runtime. Must not run in parallel with other tests (it mutates the
// process-wide GOMAXPROCS).
func TestJournalDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	withP := func(p int, f func() *rtlock.Journal) *rtlock.Journal {
		runtime.GOMAXPROCS(p)
		return f()
	}
	for _, proto := range allProtocols {
		j1 := withP(1, func() *rtlock.Journal { return singleJournal(t, proto, 7) })
		j8 := withP(8, func() *rtlock.Journal { return singleJournal(t, proto, 7) })
		if !rtlock.JournalsEqual(j1, j8) {
			t.Errorf("%s: GOMAXPROCS=1 vs 8 diverged: %s", proto, rtlock.JournalDiff(j1, j8))
		}
	}
	for _, global := range []bool{true, false} {
		j1 := withP(1, func() *rtlock.Journal { return distJournal(t, global, 7) })
		j8 := withP(8, func() *rtlock.Journal { return distJournal(t, global, 7) })
		if !rtlock.JournalsEqual(j1, j8) {
			t.Errorf("dist global=%t: GOMAXPROCS=1 vs 8 diverged: %s", global, rtlock.JournalDiff(j1, j8))
		}
	}
}

// TestJournalDeterminismPlacement extends the repeated-run and
// GOMAXPROCS byte-identity properties to the placement execution
// models (sharded 2PC, quorum replication, uncoordinated
// primary-only).
func TestJournalDeterminismPlacement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	withP := func(p int, f func() *rtlock.Journal) *rtlock.Journal {
		runtime.GOMAXPROCS(p)
		return f()
	}
	for _, pl := range placedPolicies {
		base := placedJournal(t, pl, 42)
		for run := 2; run <= 3; run++ {
			j := placedJournal(t, pl, 42)
			if j.Hash() != base.Hash() || !rtlock.JournalsEqual(base, j) {
				t.Fatalf("%s run %d diverged: %s", pl, run, rtlock.JournalDiff(base, j))
			}
		}
		j1 := withP(1, func() *rtlock.Journal { return placedJournal(t, pl, 7) })
		j8 := withP(8, func() *rtlock.Journal { return placedJournal(t, pl, 7) })
		if !rtlock.JournalsEqual(j1, j8) {
			t.Errorf("%s: GOMAXPROCS=1 vs 8 diverged: %s", pl, rtlock.JournalDiff(j1, j8))
		}
	}
}

// TestCommitSetsDeterministic checks the commit-set diagnostic: two runs
// of the same configuration commit exactly the same transactions, and a
// journal JSONL round trip preserves identity.
func TestCommitSetsDeterministic(t *testing.T) {
	a := distJournal(t, true, 11)
	b := distJournal(t, true, 11)
	if onlyA, onlyB := rtlock.CompareCommitSets(a, b); len(onlyA) != 0 || len(onlyB) != 0 {
		t.Fatalf("commit sets differ between identical runs: onlyA=%v onlyB=%v", onlyA, onlyB)
	}
	var buf bytes.Buffer
	if err := a.EncodeJSONL(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := rtlock.DecodeJournalJSONL(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !rtlock.JournalsEqual(a, dec) {
		t.Fatalf("JSONL round trip diverged: %s", rtlock.JournalDiff(a, dec))
	}
}
