package rtlock

// Aliasing/recycle safety property test for the pooled hot path. The
// fast path recycles events, wait tokens, lock waiters, transaction
// states, the runs and installers (and with them the processes that
// live in them), a cluster's rounds, journals, and serializability
// histories; a recycle bug (stale field, object shared
// across owners, capacity carrying data over) would show up as a run
// whose journal differs depending on what ran before it in the same
// process. This test pins the opposite property: every configuration
// hashes identically no matter which — and how many — other
// configurations ran first on the same warm pools. Message bodies are
// the one thing carved and never reused; the duplicated-message shape
// pins its hash too, since reusing a body goes wrong the same way in
// every run, and so does the crashed-GCM shape, whose recovery reads
// whether a pooled process has ended. CI runs it under -race and -shuffle=on, so data races on
// pooled objects and test-order dependence are caught by the same
// property.

import (
	"fmt"
	"testing"

	"rtlock/internal/journal"
)

func TestRecycleAliasingSafety(t *testing.T) {
	type shape struct {
		name string
		run  func() (string, error)
	}
	hashRun := func(cfg SingleSiteConfig) func() (string, error) {
		return func() (string, error) {
			res, err := RunSingleSite(cfg)
			if err != nil {
				return "", err
			}
			if len(res.Violations) > 0 {
				return "", fmt.Errorf("violations: %v", res.Violations)
			}
			return res.Journal.HashString(), nil
		}
	}
	// hashDist also checks that the run committed at least minCommit of
	// its transactions. The audit shapes below miss most of theirs at
	// the facade's default load, so they check the abort path; the
	// commit shapes, at one-second inter-arrivals and slack 20–30, check
	// quorum and 2PC rounds that run to completion.
	hashDist := func(cfg DistributedConfig, minCommit float64) func() (string, error) {
		return func() (string, error) {
			res, err := RunDistributed(cfg)
			if err != nil {
				return "", err
			}
			if len(res.Violations) > 0 {
				return "", fmt.Errorf("violations: %v", res.Violations)
			}
			if sum := res.Summary; float64(sum.Committed) < minCommit*float64(sum.Processed) {
				return "", fmt.Errorf("committed %d of %d, want at least %g of them", sum.Committed, sum.Processed, minCommit)
			}
			return res.Journal.HashString(), nil
		}
	}
	committing := func(count int, locality float64) WorkloadConfig {
		return WorkloadConfig{Count: count, LocalityProb: locality, MeanInterarrival: Second, SlackMin: 20, SlackMax: 30}
	}
	// Deliberately different workload sizes and protocols, so pooled
	// objects are handed between runs whose slices have different
	// lengths — the regime where stale-capacity aliasing shows.
	shapes := []shape{
		{"single/C/audit/60", hashRun(SingleSiteConfig{Audit: true, Journal: true,
			Workload: WorkloadConfig{Count: 60}})},
		{"single/HP/audit/35", hashRun(SingleSiteConfig{Protocol: TwoPLHighPriority, Audit: true, Journal: true,
			Workload: WorkloadConfig{Count: 35}})},
		{"single/DD/journal/50", hashRun(SingleSiteConfig{Protocol: TwoPLDetect, Journal: true,
			Workload: WorkloadConfig{Count: 50}})},
		{"dist/local/audit/40", hashDist(DistributedConfig{Audit: true, Journal: true,
			Workload: WorkloadConfig{Count: 40}}, 0)},
		{"dist/global/audit/30", hashDist(DistributedConfig{Global: true, Audit: true, Journal: true,
			Workload: WorkloadConfig{Count: 30}}, 0)},
		{"dist/shard/audit/45", hashDist(DistributedConfig{Placement: "shard", Sites: 4, Audit: true, Journal: true,
			Workload: WorkloadConfig{Count: 45, LocalityProb: 0.5}}, 0)},
		{"dist/quorum/audit/35", hashDist(DistributedConfig{Placement: "quorum", Sites: 4, Audit: true, Journal: true,
			Workload: WorkloadConfig{Count: 35, LocalityProb: 0.5}}, 0)},
		{"dist/global/commit/30", hashDist(DistributedConfig{Global: true, Audit: true, Journal: true,
			Workload: committing(30, 0)}, 0.9)},
		{"dist/shard/commit/45", hashDist(DistributedConfig{Placement: "shard", Sites: 4, Audit: true, Journal: true,
			Workload: committing(45, 0.5)}, 0.9)},
		{"dist/quorum/commit/35", hashDist(DistributedConfig{Placement: "quorum", Sites: 4, Audit: true, Journal: true,
			Workload: committing(35, 0.5)}, 0.9)},
		// Site 1 crashes with transactions homed there registered at
		// other sites' managers, which evict them: states that must
		// never go back to the cluster's pool.
		{"dist/shard/faults/60", func() (string, error) {
			res, err := RunDistributed(DistributedConfig{Placement: "shard", Sites: 4, Audit: true, Journal: true,
				Faults:   &FaultPlan{Crashes: []FaultCrash{{Site: 1, At: int64(1200 * Millisecond), RecoverAt: int64(1800 * Millisecond)}}},
				Workload: WorkloadConfig{Count: 60, LocalityProb: 0.5}})
			if err != nil {
				return "", err
			}
			if len(res.Violations) > 0 {
				return "", fmt.Errorf("violations: %v", res.Violations)
			}
			evicted := int64(0)
			for _, r := range res.Journal.Records() {
				if r.Kind == journal.KResync && r.Note == "evict" {
					evicted += r.A
				}
			}
			if evicted == 0 {
				return "", fmt.Errorf("the crash evicted no remote registration")
			}
			return res.Journal.HashString(), nil
		}},
		// The GCM site crashes and recovers: transactions whose
		// processes ended while it was down leave registrations in the
		// global table, which the recovery purges by reading each one's
		// process (Dead). A process lives in its pooled run, so such a
		// run must stay out of the pool: started again, its process
		// would read as live and its registration as not to purge. The
		// journal must hash as it did when every process was allocated
		// afresh.
		{"dist/global/gcm-crash/50", func() (string, error) {
			res, err := RunDistributed(DistributedConfig{Global: true, Audit: true, Journal: true,
				Faults:   &FaultPlan{Crashes: []FaultCrash{{Site: 0, At: int64(800 * Millisecond), RecoverAt: int64(1400 * Millisecond)}}},
				Workload: WorkloadConfig{Count: 50}})
			if err != nil {
				return "", err
			}
			if len(res.Violations) > 0 {
				return "", fmt.Errorf("violations: %v", res.Violations)
			}
			purged := int64(0)
			for _, r := range res.Journal.Records() {
				if r.Kind == journal.KResync && r.Note == "resync" {
					purged += r.A
				}
			}
			if purged == 0 {
				return "", fmt.Errorf("the GCM's recovery purged no registration")
			}
			const want = "3a039727c699b401dcd4bbb14d033148e7084155a8b114c1317aa6d0d7563831"
			if h := res.Journal.HashString(); h != want {
				return "", fmt.Errorf("journal hash %s, want %s", h, want)
			}
			return res.Journal.HashString(), nil
		}},
		// Every link duplicates and delays messages, so message bodies
		// are delivered twice and late. A body handed out again after its
		// first delivery gives its late copy another message's content,
		// the same way in every run, so besides matching across rounds
		// the journal must hash as it did when bodies were values
		// (boxed per send).
		{"dist/quorum/dup/40", func() (string, error) {
			res, err := RunDistributed(DistributedConfig{Placement: "quorum", Sites: 4, Audit: true, Journal: true,
				Faults:   &FaultPlan{Links: []FaultLink{{From: -1, To: -1, Dup: 0.5, JitterMax: int64(20 * Millisecond)}}},
				Workload: WorkloadConfig{Count: 40, LocalityProb: 0.5, MeanInterarrival: Second, SlackMin: 20, SlackMax: 30}})
			if err != nil {
				return "", err
			}
			if len(res.Violations) > 0 {
				return "", fmt.Errorf("violations: %v", res.Violations)
			}
			if res.Net.Duplicated == 0 {
				return "", fmt.Errorf("the plan duplicated no message")
			}
			const want = "e8c5a49778723abc45fac09d1fbf24a8e1e08b52e2ac6e38779715b75a1eac89"
			if h := res.Journal.HashString(); h != want {
				return "", fmt.Errorf("journal hash %s, want %s", h, want)
			}
			return res.Journal.HashString(), nil
		}},
		{"explore/C", func() (string, error) {
			rep, err := Explore(ExploreConfig{
				Protocol: Ceiling,
				Options:  ExploreOptions{Strategy: ExploreDFS, Schedules: 24, MaxDepth: 12, Branch: 2, Workers: 4},
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("explored=%d distinct=%d pruned=%d ce=%d",
				rep.Explored, rep.Distinct, rep.Pruned, len(rep.Counterexamples)), nil
		}},
	}
	baseline := make(map[string]string, len(shapes))
	for _, s := range shapes {
		h, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		baseline[s.name] = h
	}
	// Re-run every shape three more times, rotating the order each
	// round so each configuration inherits pools warmed by a different
	// predecessor.
	for round := 1; round <= 3; round++ {
		for i := range shapes {
			s := shapes[(i+round)%len(shapes)]
			h, err := s.run()
			if err != nil {
				t.Fatalf("round %d %s: %v", round, s.name, err)
			}
			if h != baseline[s.name] {
				t.Errorf("round %d %s: result diverged after pool reuse:\n  baseline %s\n  got      %s",
					round, s.name, baseline[s.name], h)
			}
		}
	}
}
