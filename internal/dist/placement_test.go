package dist

// Placement-aware execution paths: validation of the new config
// surface, micro-semantics of each mode (sharded, quorum, primary-only),
// byte-determinism across repeated runs, invariant audits per policy,
// and crash-recovery behavior of the sharded and quorum modes.

import (
	"strings"
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

func findPlacementBanner(j *journal.Journal) *journal.Record {
	for _, r := range j.Records() {
		if r.Kind == journal.KPlacement {
			return &r
		}
	}
	return nil
}

func pcfg(pol place.Policy, delay sim.Duration) Config {
	m, err := ModeFor(false, pol)
	if err != nil {
		panic(err)
	}
	return Config{
		Mode:      m,
		Sites:     3,
		Objects:   30, // 10 per site under range partitioning
		CommDelay: delay,
		CPUPerObj: 10 * sim.Millisecond,
	}
}

// TestPlacementValidation pins the exact rejection messages of the new
// placement and quorum fields.
func TestPlacementValidation(t *testing.T) {
	base := func(c Config) Config {
		if c.Sites == 0 {
			c.Sites = 4
		}
		c.Objects = 40
		c.CPUPerObj = sim.Millisecond
		return c
	}
	cases := []struct {
		name string
		c    Config
		want string
	}{
		{"unknown mode", Config{Mode: Mode(9)},
			"dist: unknown mode 9"},
		{"unset mode", Config{},
			"dist: unknown mode 0"},
		{"replicas without quorum", Config{Mode: Shard, Replicas: 2},
			"dist: replica and quorum parameters require placement quorum"},
		{"read quorum without quorum", Config{Mode: Global, ReadQuorum: 2},
			"dist: replica and quorum parameters require placement quorum"},
		{"replicas exceed sites", Config{Mode: Quorum, Sites: 3, Replicas: 5},
			"dist: replica count 5 out of range [1,3]"},
		{"negative replicas", Config{Mode: Quorum, Replicas: -1},
			"dist: replica count -1 out of range [1,4]"},
		{"read quorum exceeds default k", Config{Mode: Quorum, ReadQuorum: 9},
			"dist: read quorum 9 out of range [1,3]"},
		{"write quorum exceeds k", Config{Mode: Quorum, Replicas: 4, WriteQuorum: 5},
			"dist: write quorum 5 out of range [1,4]"},
		{"non-intersecting quorums", Config{Mode: Quorum, Replicas: 4, ReadQuorum: 2, WriteQuorum: 2},
			"dist: quorums R=2 W=2 do not intersect over K=4 replicas (need R+W > K)"},
	}
	for _, tc := range cases {
		c := base(tc.c)
		err := c.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := NewCluster(c); err == nil {
			t.Errorf("%s: NewCluster accepted the invalid config", tc.name)
		}
	}
	// A defaulted partner that cannot intersect an explicit quorum is
	// caught when the defaults are filled in.
	c := base(Config{Mode: Quorum, Sites: 6, Replicas: 5, WriteQuorum: 2})
	if _, err := NewCluster(c); err == nil ||
		err.Error() != "dist: quorums R=3 W=2 do not intersect over K=5 replicas (need R+W > K)" {
		t.Errorf("defaulted non-intersecting quorum: %v", err)
	}
	// Bad locality probability is rejected by the workload layer.
	if _, err := workload.NewStream(workload.Params{LocalityProb: 1.5}); err == nil ||
		!strings.Contains(err.Error(), "workload: ") {
		t.Errorf("LocalityProb 1.5: %v", err)
	}
	cl, err := NewCluster(pcfg(place.Sharded, sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = workload.NewStream(workload.Params{
		Catalog: cl.Catalog, Count: 1, MeanInterarrival: sim.Millisecond, MeanSize: 2,
		SlackMin: 1, SlackMax: 2, PerObjCost: sim.Millisecond, LocalityProb: -0.1,
	})
	if err == nil || err.Error() != "workload: locality probability -0.1 out of [0,1]" {
		t.Errorf("LocalityProb -0.1: %v", err)
	}
}

func TestShardExecution(t *testing.T) {
	conf := pcfg(place.Sharded, 5*sim.Millisecond)
	conf.Journal = journal.New(1, "shard-exec")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	c.Load([]*workload.Txn{
		// Home-shard write: lock, CPU, and data all local. 10ms CPU.
		mkDistTxn(1, 1, 0, ms(500), []workload.Op{{Obj: 11, Mode: core.Write}}),
		// Cross-shard writer: local op (10ms), travel to shard 2
		// (5+10+5), then 2PC with site 2 (prepare+vote = 10ms).
		mkDistTxn(2, 1, ms(100), ms(500), []workload.Op{{Obj: 12, Mode: core.Write}, {Obj: 21, Mode: core.Write}}),
	})
	sum := c.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	recs := c.Monitor.Records()
	if recs[0].Finish != ms(10) {
		t.Fatalf("local shard write finish = %v, want 10ms", recs[0].Finish)
	}
	if recs[1].Finish != ms(140) {
		t.Fatalf("cross-shard write finish = %v, want 140ms (arrival 100 + 10 + 20 + 2PC 10)", recs[1].Finish)
	}
	// Writes land at their primaries only (no replicas in this mode).
	if v := c.Store(1).Read(11); v.Seq != 1 {
		t.Fatalf("store(1) obj 11 = %+v", v)
	}
	if v := c.Store(2).Read(21); v.Seq != 1 {
		t.Fatalf("store(2) obj 21 = %+v", v)
	}
	if v := c.Store(0).Read(11); v.Seq != 0 {
		t.Fatalf("store(0) obj 11 = %+v, want no copy", v)
	}
	if c.TwoPCDecisions() == 0 {
		t.Fatal("cross-shard writer committed without 2PC")
	}
	if vs := audit.Run(conf.Journal, audit.ForPlacement("shard")...); len(vs) > 0 {
		t.Fatalf("auditors: %v", vs)
	}
	// The placement banner is journaled once, up front.
	if b := findPlacementBanner(conf.Journal); b == nil || b.Note != "shard(range)" {
		t.Fatalf("placement banner = %+v, want shard(range)", b)
	}
}

func TestQuorumReplicationRounds(t *testing.T) {
	conf := pcfg(place.Quorum, 5*sim.Millisecond)
	conf.Replicas, conf.ReadQuorum, conf.WriteQuorum = 3, 2, 2
	conf.Journal = journal.New(1, "quorum-exec")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	c.Load([]*workload.Txn{
		// Home-shard write at site 1: CPU 10ms, then the write quorum
		// round — install to replicas 2 and 0, first ack back at +10ms.
		mkDistTxn(1, 1, 0, ms(500), []workload.Op{{Obj: 11, Mode: core.Write}}),
		// Later read of the same object from its primary site: the read
		// quorum (primary + 1 reply) must observe the committed version.
		mkDistTxn(2, 1, ms(100), ms(500), []workload.Op{{Obj: 11, Mode: core.Read}}),
	})
	sum := c.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	recs := c.Monitor.Records()
	if recs[0].Finish != ms(20) {
		t.Fatalf("write finish = %v, want 20ms (CPU 10 + write round 10)", recs[0].Finish)
	}
	if recs[1].Finish != ms(120) {
		t.Fatalf("read finish = %v, want 120ms (arrival 100 + CPU 10 + read round 10)", recs[1].Finish)
	}
	// The committed version replicated to every replica of object 11
	// (primary 1, then sites 2 and 0).
	for site := db.SiteID(0); site < 3; site++ {
		if v := c.Store(site).Read(11); v.Seq != 1 {
			t.Fatalf("store(%d) obj 11 = %+v, want seq 1", site, v)
		}
	}
	var wrote, read bool
	for _, r := range conf.Journal.Records() {
		switch r.Kind {
		case journal.KQuorumWrite:
			wrote = true
			if r.B < 2 {
				t.Fatalf("write round acks = %d, want >= W=2", r.B)
			}
		case journal.KQuorumRead:
			read = true
			if r.A != 1 || r.B < 2 {
				t.Fatalf("read round = %+v, want seq 1 with >= R=2 replies", r)
			}
		}
	}
	if !wrote || !read {
		t.Fatalf("wrote=%t read=%t, want both rounds journaled", wrote, read)
	}
	if vs := audit.Run(conf.Journal, audit.ForPlacement("quorum")...); len(vs) > 0 {
		t.Fatalf("auditors: %v", vs)
	}
}

func TestPrimaryOnlyBaseline(t *testing.T) {
	conf := pcfg(place.PrimaryOnly, 5*sim.Millisecond)
	conf.Journal = journal.New(1, "primary-exec")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	c.Load([]*workload.Txn{
		// Remote write: travel (5) + CPU (10) + back (5). No locks, no
		// registration, no 2PC.
		mkDistTxn(1, 1, 0, ms(500), []workload.Op{{Obj: 21, Mode: core.Write}}),
	})
	sum := c.Run()
	if sum.Committed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	rec := c.Monitor.Records()[0]
	if rec.Finish != ms(20) {
		t.Fatalf("finish = %v, want 20ms", rec.Finish)
	}
	if v := c.Store(2).Read(21); v.Seq != 1 {
		t.Fatalf("store(2) obj 21 = %+v", v)
	}
	banner := findPlacementBanner(conf.Journal)
	if banner == nil || !strings.Contains(banner.Note, "serializability waived") {
		t.Fatalf("placement banner = %+v, want waived serializability note", banner)
	}
	for _, r := range conf.Journal.Records() {
		if r.Kind == journal.KRegister || r.Kind == journal.KLockGrant || r.Kind == journal.KTwoPCPrepare {
			t.Fatalf("uncoordinated baseline journaled coordination record %+v", r)
		}
	}
}

// placementLoad generates a locality-skewed mixed workload for a policy.
func placementLoad(t *testing.T, c *Cluster, pol place.Policy, seed int64) []*workload.Txn {
	t.Helper()
	p := workload.Params{
		Seed:             seed,
		Catalog:          c.Catalog,
		Count:            120,
		MeanInterarrival: 4 * sim.Millisecond,
		MeanSize:         3,
		ReadOnlyFrac:     0.3,
		PerObjCost:       c.Config().CPUPerObj,
		SlackMin:         6,
		SlackMax:         10,
	}
	if pol == place.Full {
		p.LocalWriteSets = true
	} else {
		p.LocalityProb = 0.7
	}
	txs, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return txs
}

// TestPlacementDeterminismAndAudits runs every policy three times and
// demands byte-identical journals plus green invariant audits.
func TestPlacementDeterminismAndAudits(t *testing.T) {
	for _, pol := range place.Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			run := func() *journal.Journal {
				conf := pcfg(pol, 3*sim.Millisecond)
				conf.Objects = 60
				if pol == place.Quorum {
					conf.Replicas, conf.ReadQuorum, conf.WriteQuorum = 3, 2, 2
				}
				conf.Journal = journal.New(7, "placement-det/"+pol.String())
				c, err := NewCluster(conf)
				if err != nil {
					t.Fatal(err)
				}
				c.Load(placementLoad(t, c, pol, 7))
				sum := c.Run()
				if sum.Committed == 0 {
					t.Fatalf("%s: nothing committed: %+v", pol, sum)
				}
				return conf.Journal
			}
			a, b, d := run(), run(), run()
			if a.Hash() != b.Hash() || a.Hash() != d.Hash() {
				t.Fatalf("%s: journals differ across identical runs:\n%s", pol, journal.Diff(a, b))
			}
			mode := pcfg(pol, 0).Mode.String()
			if vs := audit.Run(a, audit.ForPlacement(mode)...); len(vs) > 0 {
				t.Fatalf("%s: auditors: %v", pol, vs)
			}
		})
	}
}

// TestPlacementFaults crashes a site mid-run under the sharded and
// quorum modes and checks recovery-correctness plus determinism.
func TestPlacementFaults(t *testing.T) {
	for _, pol := range []place.Policy{place.Sharded, place.Quorum} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			run := func() *journal.Journal {
				conf := pcfg(pol, 3*sim.Millisecond)
				conf.Objects = 60
				if pol == place.Quorum {
					conf.Replicas, conf.ReadQuorum, conf.WriteQuorum = 3, 2, 2
				}
				conf.Journal = journal.New(7, "placement-faults/"+pol.String())
				c, err := NewCluster(conf)
				if err != nil {
					t.Fatal(err)
				}
				plan := &faults.Plan{Crashes: []faults.Crash{{
					Site: 0, At: 30 * int64(sim.Millisecond), RecoverAt: 250 * int64(sim.Millisecond),
				}}}
				if err := c.AttachFaults(faults.New(plan, 11)); err != nil {
					t.Fatal(err)
				}
				c.Load(placementLoad(t, c, pol, 7))
				sum := c.Run()
				if sum.Committed == 0 {
					t.Fatalf("%s: nothing committed under faults: %+v", pol, sum)
				}
				return conf.Journal
			}
			a, b := run(), run()
			if a.Hash() != b.Hash() {
				t.Fatalf("%s: fault runs differ:\n%s", pol, journal.Diff(a, b))
			}
			if vs := audit.Run(a, audit.ForFaults(pol.String())...); len(vs) > 0 {
				t.Fatalf("%s: auditors: %v", pol, vs)
			}
		})
	}
}
