package rtlock

import "testing"

func smallWorkload() WorkloadConfig {
	return WorkloadConfig{Count: 80, MeanSize: 6}
}

func TestRunSingleSiteDefaults(t *testing.T) {
	res, err := RunSingleSite(SingleSiteConfig{Workload: smallWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Processed != 80 {
		t.Fatalf("processed %d, want 80", res.Summary.Processed)
	}
	if len(res.Records) != 80 {
		t.Fatalf("records %d", len(res.Records))
	}
	if res.Serializable != nil {
		t.Fatal("serializability reported without RecordHistory")
	}
}

func TestRunSingleSiteSerializableHistory(t *testing.T) {
	for _, proto := range []Protocol{Ceiling, CeilingExclusive, TwoPLPriority, TwoPL, TwoPLInherit} {
		res, err := RunSingleSite(SingleSiteConfig{
			Protocol:      proto,
			Workload:      smallWorkload(),
			RecordHistory: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Serializable == nil || !*res.Serializable {
			t.Fatalf("%s: committed history not conflict serializable", proto)
		}
	}
}

func TestRunSingleSiteDeterministic(t *testing.T) {
	run := func() Summary {
		res, err := RunSingleSite(SingleSiteConfig{Workload: smallWorkload()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestRunSingleSiteCustomTransactions(t *testing.T) {
	txs := []*Txn{
		{ID: 1, Kind: Update, Arrival: 0, Deadline: Time(Second),
			Ops: []Op{{Obj: 1, Mode: Write}, {Obj: 2, Mode: Write}}},
		{ID: 2, Kind: ReadOnly, Arrival: Time(5 * Millisecond), Deadline: Time(Second),
			Ops: []Op{{Obj: 3, Mode: Read}}},
	}
	res, err := RunSingleSite(SingleSiteConfig{
		Workload: WorkloadConfig{Transactions: txs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Committed != 2 {
		t.Fatalf("committed %d, want 2: %+v", res.Summary.Committed, res.Summary)
	}
}

func TestRunSingleSiteBadProtocol(t *testing.T) {
	if _, err := RunSingleSite(SingleSiteConfig{Protocol: Protocol("Z")}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunDistributedLocal(t *testing.T) {
	res, err := RunDistributed(DistributedConfig{Workload: smallWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Processed != 80 {
		t.Fatalf("processed %d", res.Summary.Processed)
	}
	if res.Replication == nil {
		t.Fatal("local run missing replication stats")
	}
	if res.Replication.Installs == 0 {
		t.Fatal("no replica installs recorded")
	}
	if res.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestRunDistributedGlobal(t *testing.T) {
	res, err := RunDistributed(DistributedConfig{
		Global:        true,
		Workload:      WorkloadConfig{Count: 60, MeanSize: 4, MeanInterarrival: 120 * Millisecond},
		CommDelay:     5 * Millisecond,
		RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replication != nil {
		t.Fatal("global run reported replication stats")
	}
	if res.Serializable == nil || !*res.Serializable {
		t.Fatal("global committed history not serializable")
	}
}

func TestDistributedLocalBeatsGlobal(t *testing.T) {
	wl := WorkloadConfig{Count: 150, MeanSize: 6}
	local, err := RunDistributed(DistributedConfig{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	global, err := RunDistributed(DistributedConfig{Global: true, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if local.Summary.MissedPct > global.Summary.MissedPct {
		t.Fatalf("local missed %.1f%% > global %.1f%%",
			local.Summary.MissedPct, global.Summary.MissedPct)
	}
}

func TestCeilingBeatsTwoPLAtLargeSizes(t *testing.T) {
	wl := WorkloadConfig{Count: 200, MeanSize: 18}
	ceiling, err := RunSingleSite(SingleSiteConfig{Protocol: Ceiling, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	twoPL, err := RunSingleSite(SingleSiteConfig{Protocol: TwoPL, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if ceiling.Summary.MissedPct >= twoPL.Summary.MissedPct {
		t.Fatalf("ceiling missed %.1f%% not below 2PL %.1f%% at size 18",
			ceiling.Summary.MissedPct, twoPL.Summary.MissedPct)
	}
}

func TestReproduceAllScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction sweep")
	}
	sp := DefaultSingleSiteParams()
	sp.Scale(0.15, 1)
	sp.Sizes = []int{6, 20}
	dp := DefaultDistParams()
	dp.Scale(0.2, 1)
	dp.Mixes = []float64{0, 1}
	dp.DelayUnits = []float64{0, 8}
	dp.Fig6Delays = []float64{8}
	figs, err := ReproduceAll(sp, dp)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 8 {
		t.Fatalf("figures = %d, want 8", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) == 0 {
			t.Fatalf("figure %s has no series", f.Name)
		}
		if f.String() == "" || f.CSV() == "" {
			t.Fatalf("figure %s renders empty", f.Name)
		}
	}
}

// TestRunDistributedSerializableCanBeFalse: the verdict covers the whole
// system's committed history, so the modes that waive serializability
// report false where the coordinated ones report true. The local
// approach reads stale replicas; the primary placement coordinates
// nothing.
func TestRunDistributedSerializableCanBeFalse(t *testing.T) {
	for _, tc := range []struct {
		name      string
		global    bool
		placement string
		seed      int64
		want      bool
	}{
		{"local", false, "", 6, false},
		{"local", false, "", 7, false},
		{"primary", false, "primary", 6, false},
		{"primary", false, "primary", 7, false},
		{"global", true, "", 6, true},
		{"global", true, "", 7, true},
	} {
		res, err := RunDistributed(DistributedConfig{
			Global:        tc.global,
			Placement:     tc.placement,
			RecordHistory: true,
			Workload: WorkloadConfig{Seed: tc.seed, Count: 200, MeanSize: 6,
				MeanInterarrival: 20 * Millisecond, ReadOnlyFrac: 0.3},
		})
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.name, tc.seed, err)
		}
		if res.Serializable == nil {
			t.Fatalf("%s seed %d: no verdict with RecordHistory set", tc.name, tc.seed)
		}
		if *res.Serializable != tc.want {
			t.Fatalf("%s seed %d: Serializable = %t, want %t", tc.name, tc.seed, *res.Serializable, tc.want)
		}
	}
}
