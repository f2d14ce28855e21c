package rtlock

import (
	"strings"
	"testing"

	"rtlock/internal/core"
)

func TestRunDistributedMultiversion(t *testing.T) {
	wl := WorkloadConfig{Count: 120, MeanSize: 5, ReadOnlyFrac: 0.6}
	res, err := RunDistributed(DistributedConfig{
		Multiversion: true,
		Workload:     wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replication == nil {
		t.Fatal("missing replication stats")
	}
	classified := res.Replication.ConsistentViews + res.Replication.InconsistentViews
	if classified == 0 {
		t.Fatal("no read-only views classified")
	}
}

func TestRunDistributedWithTopology(t *testing.T) {
	topo, err := NewStar(3, 0, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDistributed(DistributedConfig{
		Global:   true,
		Topology: topo,
		Workload: WorkloadConfig{Count: 60, MeanSize: 4, MeanInterarrival: 120 * Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Processed != 60 {
		t.Fatalf("processed %d", res.Summary.Processed)
	}
	// Mismatched topology must be rejected.
	bad, err := NewRing(5, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(DistributedConfig{Topology: bad, Sites: 3}); err == nil {
		t.Fatal("mismatched topology accepted")
	}
}

func TestRunSingleSiteBufferSpeedsUp(t *testing.T) {
	wl := WorkloadConfig{Count: 150, MeanSize: 14, Seed: 5}
	plain, err := RunSingleSite(SingleSiteConfig{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := RunSingleSite(SingleSiteConfig{Workload: wl, BufferPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Summary.MissedPct > plain.Summary.MissedPct {
		t.Fatalf("full buffer missed %.1f%% > unbuffered %.1f%%",
			buffered.Summary.MissedPct, plain.Summary.MissedPct)
	}
}

func TestConditionalRestartProtocolRuns(t *testing.T) {
	res, err := RunSingleSite(SingleSiteConfig{
		Protocol:      TwoPLConditional,
		Workload:      WorkloadConfig{Count: 150, MeanSize: 12},
		RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable == nil || !*res.Serializable {
		t.Fatal("CR history not serializable")
	}
}

func TestAllProtocolsProcessEverything(t *testing.T) {
	wl := WorkloadConfig{Count: 100, MeanSize: 10, Seed: 3}
	for _, proto := range core.Letters() {
		res, err := RunSingleSite(SingleSiteConfig{Protocol: proto, Workload: wl})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Summary.Processed != 100 {
			t.Fatalf("%s processed %d/100 — transactions leaked", proto, res.Summary.Processed)
		}
	}
}

// TestNetReportCountsEveryArrival: on a fault-free run that misses
// nothing, every inter-site message arrives, so the report delivers what
// it sent and loses nothing, in every mode. The global approach's lock
// requests and replies are synchronous hops; the local approach's
// installs, the 2PC rounds and the quorum rounds are asynchronous
// messages, some of them within one site (a quorum round's request to,
// or answer from, a replica at the transaction's home), which count as
// neither sent nor delivered.
func TestNetReportCountsEveryArrival(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
	}{
		{"local", DistributedConfig{}},
		{"global", DistributedConfig{Global: true}},
		{"shard", DistributedConfig{Placement: "shard", Sites: 4}},
		{"quorum", DistributedConfig{Placement: "quorum", Sites: 4}},
		{"primary", DistributedConfig{Placement: "primary", Sites: 4}},
	} {
		cfg := tc.cfg
		cfg.Workload.Count = 100
		cfg.Workload.MeanInterarrival = Second
		cfg.Workload.SlackMin, cfg.Workload.SlackMax = 20, 30
		res, err := RunDistributed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Missed != 0 || res.Net.Sent == 0 {
			t.Fatalf("%s: the run must miss nothing and send messages: %s, net: %s", tc.name, res.Summary, res.Net)
		}
		if n := res.Net; n.Delivered != n.Sent || n.Lost() != 0 {
			t.Errorf("%s: net: %s, want every message delivered", tc.name, n)
		}
	}
}

// TestNetReportBalancesWithMisses: at the default load, where deadline
// aborts interrupt synchronous hops in flight, every message the network
// sent is still accounted for — delivered, lost or aborted — in every
// mode.
func TestNetReportBalancesWithMisses(t *testing.T) {
	aborted := 0
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
	}{
		{"local", DistributedConfig{}},
		{"global", DistributedConfig{Global: true}},
		{"shard", DistributedConfig{Placement: "shard", Sites: 4}},
		{"quorum", DistributedConfig{Placement: "quorum", Sites: 4}},
		{"primary", DistributedConfig{Placement: "primary", Sites: 4}},
	} {
		cfg := tc.cfg
		cfg.Workload.Count = 200
		res, err := RunDistributed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := res.Net
		t.Logf("%s: %s, net: %s", tc.name, res.Summary, n)
		if res.Summary.Missed == 0 {
			t.Errorf("%s: the run must miss transactions: %s", tc.name, res.Summary)
		}
		if n.Duplicated != 0 || n.Sent != n.Delivered+n.Lost()+n.Aborted {
			t.Errorf("%s: net: %s, want sent = delivered + lost + aborted", tc.name, n)
		}
		aborted += n.Aborted
	}
	if aborted == 0 {
		t.Error("no mode aborted a hop in flight")
	}
}

func TestDistributedSiteFailure(t *testing.T) {
	// Light load and a small delay, so the healthy global baseline
	// performs well and the outage's damage is unambiguous.
	wl := WorkloadConfig{Count: 100, MeanSize: 4, Seed: 7, MeanInterarrival: 120 * Millisecond}
	delay := 5 * Millisecond
	fail := []SiteFailure{{Site: 0, At: 0}} // GCM down the whole run
	healthy, err := RunDistributed(DistributedConfig{Global: true, CommDelay: delay, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := RunDistributed(DistributedConfig{Global: true, CommDelay: delay, Workload: wl, Failures: fail})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Summary.MissedPct <= healthy.Summary.MissedPct {
		t.Fatalf("GCM outage did not hurt: %.1f%% vs %.1f%%",
			failed.Summary.MissedPct, healthy.Summary.MissedPct)
	}
	// The local approach shrugs the same failure off.
	local, err := RunDistributed(DistributedConfig{CommDelay: delay, Workload: wl, Failures: fail})
	if err != nil {
		t.Fatal(err)
	}
	if local.Summary.MissedPct >= failed.Summary.MissedPct {
		t.Fatalf("local approach %.1f%% not below failed-global %.1f%%",
			local.Summary.MissedPct, failed.Summary.MissedPct)
	}
}

// TestLostRegistrationRelease replays the one-cut plan that used to
// panic the global path: the cut eats the transaction's registration at
// the remote manager (10ms), its hop times out (50ms), and its release
// lands after the heal (60ms) on a manager that never learned of it.
// Every managed mode must skip that release: no panic, a clean faulted
// audit, and no KUnregister for a registration that was never journaled.
func TestLostRegistrationRelease(t *testing.T) {
	plan, err := ParseFaultPlan([]byte(`{"chosen":{"cuts":[{"site":2,"at":5000,"heal_at":55000}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  DistributedConfig
		obj  ObjectID // primary away from the manager the cut hides
	}{
		{"global", DistributedConfig{Global: true}, 8},
		{"shard", DistributedConfig{Placement: "shard"}, 0},
		{"quorum", DistributedConfig{Placement: "quorum"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Sites, cfg.DBSize = 3, 9
			cfg.CommDelay, cfg.CPUPerObj = 10*Millisecond, 2*Millisecond
			cfg.Audit, cfg.Journal, cfg.Faults = true, true, plan
			cfg.Workload = WorkloadConfig{Transactions: []*Txn{{ID: 1, Kind: Update, Home: 2,
				Arrival: 0, Deadline: Time(1 * Second), Ops: []Op{{Obj: tc.obj, Mode: Write}}}}}
			res, err := RunDistributed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Processed != 1 || res.Summary.Committed != 0 {
				t.Fatalf("want the one transaction processed and aborted, got %v", res.Summary)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			type reg struct {
				site int32
				tx   int64
			}
			registered := make(map[reg]bool)
			for _, r := range res.Journal.Records() {
				switch r.Kind.String() {
				case "register":
					registered[reg{r.Site, r.Tx}] = true
				case "unregister":
					if !registered[reg{r.Site, r.Tx}] {
						t.Errorf("orphan KUnregister at site %d for tx %d (seq %d)", r.Site, r.Tx, r.Seq)
					}
				}
			}
		})
	}
}

// TestGlobalPlacementConflict checks that every entry point — the
// facade, the spec parser, and fault exploration — rejects Global
// combined with a placement, all with the one message from dist.ModeFor.
func TestGlobalPlacementConflict(t *testing.T) {
	const want = "dist: placement shard selects its own execution model; Global must be false"
	for name, run := range map[string]func() error{
		"facade": func() error {
			_, err := RunDistributed(DistributedConfig{Global: true, Placement: "shard"})
			return err
		},
		"spec": func() error {
			_, err := ParseSpec([]byte(`{"mode":"distributed","global":true,"placement":"shard"}`))
			return err
		},
		"explore -faults": func() error {
			_, err := Explore(ExploreConfig{Faults: true, Global: true, Placement: "shard"})
			return err
		},
	} {
		if err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}

func TestWALThroughFacade(t *testing.T) {
	res, err := RunSingleSite(SingleSiteConfig{
		WAL:             true,
		CheckpointEvery: 500 * Millisecond,
		Workload:        WorkloadConfig{Count: 80, MeanSize: 6, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("WAL run missing recovery info")
	}
	if res.Recovery.Records == 0 {
		t.Fatal("no commit records forced")
	}
	if res.Recovery.Checkpoints == 0 {
		t.Fatal("checkpointer never ran")
	}
	if res.Recovery.EstimatedRestart <= 0 {
		t.Fatalf("restart estimate %v", res.Recovery.EstimatedRestart)
	}
	// WAL off: no recovery info.
	plain, err := RunSingleSite(SingleSiteConfig{Workload: WorkloadConfig{Count: 20, MeanSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Recovery != nil {
		t.Fatal("non-WAL run reported recovery info")
	}
}

func TestSummaryPercentilesPopulated(t *testing.T) {
	res, err := RunSingleSite(SingleSiteConfig{Workload: WorkloadConfig{Count: 100, MeanSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.RespP50 <= 0 || res.Summary.RespP99 < res.Summary.RespP50 {
		t.Fatalf("percentiles p50=%v p99=%v", res.Summary.RespP50, res.Summary.RespP99)
	}
	if res.Summary.CPUUtil <= 0 || res.Summary.CPUUtil > 1.01 {
		t.Fatalf("cpu util %v", res.Summary.CPUUtil)
	}
}

// TestWorkloadKnobsReachBothEntryPoints is the regression for the
// hand-copied WorkloadConfig mappings: RunDistributed used to drop the
// burst settings (a bursty run journaled exactly like a plain one, and an
// invalid factor passed unvalidated), and RunSingleSite silently ignored
// LocalityProb.
func TestWorkloadKnobsReachBothEntryPoints(t *testing.T) {
	wl := WorkloadConfig{Count: 80, MeanSize: 4}
	plain, err := RunDistributed(DistributedConfig{Journal: true, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	wl.BurstFactor, wl.BurstOn, wl.BurstOff = 4, 200*Millisecond, 300*Millisecond
	bursty, err := RunDistributed(DistributedConfig{Journal: true, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Journal.Hash() == bursty.Journal.Hash() {
		t.Fatal("bursty distributed run journaled identically to the plain one")
	}
	for name, run := range map[string]func(WorkloadConfig) error{
		"distributed": func(w WorkloadConfig) error { _, err := RunDistributed(DistributedConfig{Workload: w}); return err },
		"single":      func(w WorkloadConfig) error { _, err := RunSingleSite(SingleSiteConfig{Workload: w}); return err },
	} {
		if err := run(WorkloadConfig{Count: 20, BurstFactor: 0.5}); err == nil || !strings.Contains(err.Error(), "burst factor") {
			t.Errorf("%s: BurstFactor 0.5 gave %v, want the workload's burst-factor error", name, err)
		}
	}
	if _, err := RunSingleSite(SingleSiteConfig{Workload: WorkloadConfig{Count: 20, LocalityProb: 0.7}}); err == nil {
		t.Error("single-site run accepted LocalityProb, which only placed distributed runs honor")
	}
}
