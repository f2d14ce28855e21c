package dist

import (
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

// netsimStar shortens topology construction in tests.
func netsimStar(sites int, hub db.SiteID, link sim.Duration) (*netsim.Topology, error) {
	return netsim.Star(sites, hub, link)
}

func cfg(m Mode, delay sim.Duration) Config {
	return Config{
		Mode:      m,
		Sites:     3,
		Objects:   30, // 10 per site
		CommDelay: delay,
		CPUPerObj: 10 * sim.Millisecond,
	}
}

// mkDistTxn builds a transaction homed at a site with explicit ops.
func mkDistTxn(id int64, home db.SiteID, arrival, deadline sim.Time, ops []workload.Op) *workload.Txn {
	kind := workload.Update
	ro := true
	for _, op := range ops {
		if op.Mode == core.Write {
			ro = false
		}
	}
	if ro {
		kind = workload.ReadOnly
	}
	return &workload.Txn{ID: id, Kind: kind, Home: home, Arrival: arrival, Deadline: deadline, Ops: ops}
}

func TestClusterValidation(t *testing.T) {
	bad := []Config{
		{},
		{Mode: Global, Sites: 0, Objects: 10, CPUPerObj: 1},
		{Mode: Global, Sites: 3, Objects: 0, CPUPerObj: 1},
		{Mode: Global, Sites: 3, Objects: 10, CPUPerObj: 0},
		{Mode: Global, Sites: 3, Objects: 10, CPUPerObj: 1, GCMSite: 5},
		{Mode: Global, Sites: 3, Objects: 10, CPUPerObj: 1, CommDelay: -1},
	}
	for i, c := range bad {
		if _, err := NewCluster(c); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// The micro tests below time single transactions; their message counts
// are rows of TestModePipeline's closed form (same transactions).

func TestGlobalLockRoundTripCost(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Site 1's primary partition is objects 10..19. One write op on a
	// home-local object: lock round trip (10ms) + local CPU (10ms).
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 10, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(20*sim.Millisecond) {
		t.Fatalf("finish = %v, want 20ms (lock RT 10 + CPU 10)", rec.Finish)
	}
	// Committed write visible at the primary store.
	if v := c.Store(1).Read(10); v.Seq != 1 {
		t.Fatalf("primary store version %+v", v)
	}
}

func TestGlobalGCMSiteLocksFree(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Home = GCM site 0, object 0 is home-primary: no messages at all.
	tx := mkDistTxn(1, 0, 0, sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	c.Run()
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(10*sim.Millisecond) {
		t.Fatalf("finish = %v, want 10ms", rec.Finish)
	}
}

func TestGlobalRemoteDataAccess(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Read-only transaction at site 1 reading object 20 (primary at
	// site 2): lock RT (10) + travel to owner (5) + CPU (10) + back (5).
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 20, Mode: core.Read}})
	c.Load([]*workload.Txn{tx})
	c.Run()
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(30*sim.Millisecond) {
		t.Fatalf("finish = %v, want 30ms", rec.Finish)
	}
}

func TestGlobalTwoPhaseCommitOnRemoteWrite(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Write at a remote primary triggers 2PC: one prepare round trip.
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 20, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	c.Run()
	rec := c.Monitor.Records()[0]
	// 30ms as above + 10ms prepare round.
	if rec.Finish != sim.Time(40*sim.Millisecond) {
		t.Fatalf("finish = %v, want 40ms (with 2PC prepare round)", rec.Finish)
	}
	if v := c.Store(2).Read(20); v.Seq != 1 {
		t.Fatalf("remote primary version %+v", v)
	}
}

func TestGlobalTwoPCDecisionsDelivered(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{
		{Obj: 20, Mode: core.Write}, // site 2
		{Obj: 0, Mode: core.Write},  // site 0
	})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	// Two remote write participants, one decision each.
	if c.TwoPCDecisions() != 2 {
		t.Fatalf("decisions = %d, want 2", c.TwoPCDecisions())
	}
}

func TestGlobalTwoPCAbortMidProtocol(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Ops finish at 30ms; the 2PC vote round needs 10ms more, but the
	// deadline lands at 35ms — the coordinator aborts mid-protocol and
	// abort decisions still reach the participant.
	tx := mkDistTxn(1, 1, 0, sim.Time(35*sim.Millisecond), []workload.Op{{Obj: 20, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Missed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	if c.TwoPCDecisions() != 1 {
		t.Fatalf("decisions = %d, want 1 (abort decision)", c.TwoPCDecisions())
	}
	// The aborted write never reaches the primary store.
	if v := c.Store(2).Read(20); v.Seq != 0 {
		t.Fatalf("aborted write installed: %+v", v)
	}
}

func TestGlobalStarTopologyGCMPlacement(t *testing.T) {
	// With a star interconnect, a transaction at a leaf pays leaf→hub
	// (GCM at the hub) one link; leaf→leaf data access pays two.
	topo, err := netsimStar(3, 0, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	conf := cfg(Global, 0)
	conf.Topology = topo
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	// Home site 1 (leaf), object 0 is at hub site 0: lock RT to hub
	// (10ms) + data access at hub (5+10+5) = 30ms total.
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Read}})
	c.Load([]*workload.Txn{tx})
	c.Run()
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(30*sim.Millisecond) {
		t.Fatalf("finish = %v, want 30ms under star topology", rec.Finish)
	}
}

func TestClusterTopologySiteMismatch(t *testing.T) {
	topo, err := netsimStar(4, 0, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	conf := cfg(Global, 0)
	conf.Topology = topo // 4 sites vs config's 3
	if _, err := NewCluster(conf); err == nil {
		t.Fatal("mismatched topology accepted")
	}
}

func TestGlobalCeilingBlocksAcrossSites(t *testing.T) {
	c, err := NewCluster(cfg(Global, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Two transactions at different sites contending for one object:
	// the global manager serializes them even though they never meet.
	a := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 5, Mode: core.Write}})
	b := mkDistTxn(2, 2, sim.Time(sim.Millisecond), sim.Time(sim.Second), []workload.Op{{Obj: 5, Mode: core.Write}})
	c.Load([]*workload.Txn{a, b})
	sum := c.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	recs := c.Monitor.Records()
	if recs[1].Blocked == 0 {
		t.Fatal("second transaction was not blocked by the global manager")
	}
}

func TestGlobalDeadlineAbort(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Deadline expires mid-flight (during the lock round trip).
	tx := mkDistTxn(1, 1, 0, sim.Time(7*sim.Millisecond), []workload.Op{{Obj: 10, Mode: core.Write}})
	after := mkDistTxn(2, 1, sim.Time(50*sim.Millisecond), sim.Time(sim.Second), []workload.Op{{Obj: 10, Mode: core.Write}})
	c.Load([]*workload.Txn{tx, after})
	sum := c.Run()
	if sum.Missed != 1 || sum.Committed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(7*sim.Millisecond) {
		t.Fatalf("aborted at %v, want the 7ms deadline", rec.Finish)
	}
}

func TestGlobalHistorySerializable(t *testing.T) {
	conf := cfg(Global, 2*sim.Millisecond)
	ser := audit.NewSerializable(false)
	conf.Journal = journal.New(0, "dist-test")
	conf.Journal.Tee(true, ser)
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	var txs []*workload.Txn
	for i := int64(1); i <= 15; i++ {
		home := db.SiteID(i % 3)
		obj := core.ObjectID(i % 6)
		obj2 := core.ObjectID((i + 3) % 6)
		txs = append(txs, mkDistTxn(i, home, sim.Time(i)*sim.Time(8*sim.Millisecond), sim.Time(10*sim.Second),
			[]workload.Op{{Obj: obj, Mode: core.Write}, {Obj: obj2, Mode: core.Write}}))
	}
	c.Load(txs)
	sum := c.Run()
	if sum.Committed != 15 {
		t.Fatalf("committed %d/15: %+v", sum.Committed, sum)
	}
	if len(ser.Finish()) != 0 {
		t.Fatal("global approach produced a non-serializable history")
	}
}

func TestLocalAllAccessesLocal(t *testing.T) {
	c, err := NewCluster(cfg(Local, 20*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Update at site 1 writing two home-primary objects: pure local
	// execution regardless of the large communication delay.
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{
		{Obj: 10, Mode: core.Write}, {Obj: 11, Mode: core.Write},
	})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(20*sim.Millisecond) {
		t.Fatalf("finish = %v, want 20ms (2 × local CPU)", rec.Finish)
	}
}

func TestLocalPropagationInstallsReplicas(t *testing.T) {
	c, err := NewCluster(cfg(Local, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	tx := mkDistTxn(1, 0, 0, sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	c.Run()
	for s := db.SiteID(0); s < 3; s++ {
		if v := c.Store(s).Read(0); v.Seq != 1 || v.Value != 1 {
			t.Fatalf("site %d replica = %+v, want installed version 1", s, v)
		}
	}
	if got := c.Replication().Installs; got != 2 {
		t.Fatalf("installs = %d, want 2", got)
	}
	if got := c.Replication().InstallDrops; got != 0 {
		t.Fatalf("install drops = %d", got)
	}
}

func TestLocalStaleReadObserved(t *testing.T) {
	c, err := NewCluster(cfg(Local, 20*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Writer at site 0 commits object 0 at 10ms; reader at site 1 reads
	// it at 15ms — before the install lands (30ms+). The read is stale.
	w := mkDistTxn(1, 0, 0, sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Write}})
	r := mkDistTxn(2, 1, sim.Time(15*sim.Millisecond), sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Read}})
	c.Load([]*workload.Txn{w, r})
	sum := c.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	repl := c.Replication()
	if repl.ReadSamples != 1 || repl.StaleReads != 1 {
		t.Fatalf("replication stats = %+v, want one stale read", repl)
	}
	if repl.TotalLag <= 0 {
		t.Fatal("no staleness lag recorded")
	}
}

func TestLocalInstallerDropsAfterRetries(t *testing.T) {
	conf := cfg(Local, 5*sim.Millisecond)
	conf.InstallTimeout = 8 * sim.Millisecond // covers the 5ms apply with margin
	conf.InstallRetries = 2
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	// A read-only transaction at site 1 read-locks object 0 (a replica
	// of site 0's primary) for a very long time; the installer for the
	// concurrent write cannot get its write lock and eventually drops.
	var ops []workload.Op
	ops = append(ops, workload.Op{Obj: 0, Mode: core.Read})
	for i := 10; i < 18; i++ {
		ops = append(ops, workload.Op{Obj: core.ObjectID(i), Mode: core.Read})
	}
	reader := mkDistTxn(1, 1, 0, sim.Time(10*sim.Second), ops)
	writer := mkDistTxn(2, 0, sim.Time(2*sim.Millisecond), sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Write}})
	c.Load([]*workload.Txn{reader, writer})
	sum := c.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	repl := c.Replication()
	// Site 2's install succeeds; site 1's is blocked by the reader
	// until it times out twice and drops.
	if repl.InstallDrops != 1 || repl.Installs != 1 {
		t.Fatalf("replication stats = %+v, want 1 drop and 1 install", repl)
	}
	if v := c.Store(1).Read(0); v.Seq != 0 {
		t.Fatalf("site 1 replica unexpectedly updated: %+v", v)
	}
}

// inconsistencyScenario builds the temporal-inconsistency race on an
// asymmetric interconnect (site 0 is 5ms from the reader's site 2, site
// 1 is 40ms away): W1 writes object 0 at site 0 (commit 10ms; replica
// installed at site 2 by ~20ms); W2 writes object 10 at site 1 (commit
// 25ms; replica reaches site 2 only at ~65ms). The reader at site 2
// sees object 0 NEW (written 10ms) at 30ms and object 10 still OLD at
// 40ms — but object 10's update (25ms) happened AFTER object 0's, so no
// single instant admits both observations: the view is temporally
// inconsistent.
func inconsistencyScenario(t *testing.T) (Config, []*workload.Txn) {
	t.Helper()
	ms := sim.Millisecond
	topo, err := netsim.Custom([][]sim.Duration{
		{0, 20 * ms, 5 * ms},
		{20 * ms, 0, 40 * ms},
		{5 * ms, 40 * ms, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	conf := cfg(Local, 0)
	conf.Topology = topo
	// The EARLY write (10ms, object 10 at far site 1) propagates
	// slowly (installed at the reader's site ~55ms); the LATE write
	// (25ms, object 0 at near site 0) arrives fast (~35ms). The reader
	// then observes object 0 NEW but object 10 OLD — and object 10's
	// zero version stopped being current at 10ms, before object 0's
	// version existed (25ms): no consistent instant.
	w1 := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 10, Mode: core.Write}})
	w2 := mkDistTxn(2, 0, sim.Time(15*sim.Millisecond), sim.Time(sim.Second), []workload.Op{{Obj: 0, Mode: core.Write}})
	reader := &workload.Txn{ID: 3, Kind: workload.ReadOnly, Home: 2,
		Arrival: sim.Time(36 * sim.Millisecond), Deadline: sim.Time(sim.Second),
		Ops: []workload.Op{
			{Obj: 0, Mode: core.Read},  // at 36ms: new version (installed ~35ms)
			{Obj: 10, Mode: core.Read}, // at 46ms: old version (installed ~55ms)
		}}
	return conf, []*workload.Txn{w1, w2, reader}
}

func TestLocalInconsistentViewDetected(t *testing.T) {
	conf, load := inconsistencyScenario(t)
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	c.Load(load)
	sum := c.Run()
	if sum.Committed != 3 {
		t.Fatalf("summary: %+v", sum)
	}
	repl := c.Replication()
	if repl.InconsistentViews != 1 || repl.ConsistentViews != 0 {
		t.Fatalf("replication = %+v, want exactly one inconsistent view", repl)
	}
}

func TestLocalMultiversionSnapshotConsistent(t *testing.T) {
	// The same race under multiversion snapshot reads: the reader pins
	// its view to arrival − lag and sees a consistent (if old)
	// snapshot.
	conf, load := inconsistencyScenario(t)
	conf.Multiversion = true
	conf.SnapshotLag = 100 * sim.Millisecond
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	c.Load(load)
	sum := c.Run()
	if sum.Committed != 3 {
		t.Fatalf("summary: %+v", sum)
	}
	repl := c.Replication()
	if repl.InconsistentViews != 0 || repl.ConsistentViews != 1 {
		t.Fatalf("replication = %+v, want one consistent view", repl)
	}
	if repl.SnapshotMisses != 0 {
		t.Fatalf("snapshot misses = %d", repl.SnapshotMisses)
	}
}

func TestLocalSurvivesRemoteSiteFailure(t *testing.T) {
	// A down remote site costs the local approach only dropped replica
	// updates — local transactions keep committing.
	c, err := NewCluster(cfg(Local, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.FailSite(2, 0, 0) // down for the whole run
	var txs []*workload.Txn
	for i := int64(1); i <= 20; i++ {
		txs = append(txs, mkDistTxn(i, 0, sim.Time(i)*sim.Time(20*sim.Millisecond), sim.Time(10*sim.Second),
			[]workload.Op{{Obj: core.ObjectID(i % 5), Mode: core.Write}}))
	}
	c.Load(txs)
	sum := c.Run()
	if sum.Committed != 20 {
		t.Fatalf("summary: %+v", sum)
	}
	if c.Net.DroppedDown == 0 {
		t.Fatal("no replica updates were dropped toward the down site")
	}
	// Site 1 still received its installs; site 2 received none.
	if v := c.Store(1).Read(0); v.Seq == 0 {
		t.Fatal("live replica not updated")
	}
	if v := c.Store(2).Read(0); v.Seq != 0 {
		t.Fatal("down site received updates")
	}
}

func TestGlobalStallsWhenGCMDown(t *testing.T) {
	// With the global ceiling manager unreachable, every remote-homed
	// transaction times out on its lock request and misses.
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.FailSite(0, 0, 0) // the GCM site
	var txs []*workload.Txn
	for i := int64(1); i <= 10; i++ {
		txs = append(txs, mkDistTxn(i, 1, sim.Time(i)*sim.Time(10*sim.Millisecond), sim.Time(i)*sim.Time(10*sim.Millisecond)+sim.Time(200*sim.Millisecond),
			[]workload.Op{{Obj: 10, Mode: core.Write}}))
	}
	c.Load(txs)
	sum := c.Run()
	if sum.Committed != 0 || sum.Missed != 10 {
		t.Fatalf("summary: %+v — GCM down must stall remote transactions", sum)
	}
}

func TestGlobalRecoversAfterGCMOutage(t *testing.T) {
	c, err := NewCluster(cfg(Global, 5*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Outage 0–100ms; a transaction arriving at 150ms succeeds.
	c.FailSite(0, 0, sim.Time(100*sim.Millisecond))
	early := mkDistTxn(1, 1, 0, sim.Time(80*sim.Millisecond), []workload.Op{{Obj: 10, Mode: core.Write}})
	late := mkDistTxn(2, 1, sim.Time(150*sim.Millisecond), sim.Time(sim.Second), []workload.Op{{Obj: 10, Mode: core.Write}})
	c.Load([]*workload.Txn{early, late})
	sum := c.Run()
	if sum.Committed != 1 || sum.Missed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	recs := c.Monitor.Records()
	if recs[0].Outcome == stats.Committed {
		t.Fatal("transaction during outage committed")
	}
	if recs[1].Outcome != stats.Committed {
		t.Fatal("post-recovery transaction missed")
	}
}

func TestLocalBeatsGlobalUnderContention(t *testing.T) {
	// The headline §4 comparison in miniature: same workload, both
	// approaches; the local approach must miss no more deadlines and
	// finish no later on average.
	mkLoad := func() []*workload.Txn {
		var txs []*workload.Txn
		id := int64(0)
		for i := 0; i < 30; i++ {
			id++
			home := db.SiteID(i % 3)
			base := core.ObjectID(int(home) * 10)
			arr := sim.Time(i) * sim.Time(15*sim.Millisecond)
			txs = append(txs, mkDistTxn(id, home, arr, arr.Add(250*sim.Millisecond), []workload.Op{
				{Obj: base + core.ObjectID(i%5), Mode: core.Write},
				{Obj: base + core.ObjectID((i+1)%5), Mode: core.Write},
			}))
		}
		return txs
	}
	run := func(a Mode) float64 {
		c, err := NewCluster(cfg(a, 10*sim.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		c.Load(mkLoad())
		return c.Run().MissedPct
	}
	globalMiss := run(Global)
	localMiss := run(Local)
	if localMiss > globalMiss {
		t.Fatalf("local missed %.1f%% > global %.1f%%", localMiss, globalMiss)
	}
}
