package explore

import (
	"fmt"

	"rtlock/internal/audit"
	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/faults"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// The generated cluster exploration load (see FaultOpts).
const (
	clusterCount    = 10
	clusterMeanSize = 3
)

// FaultOpts configures a cluster exploration target. Under FaultTarget
// the schedule tree includes failure decisions — site crashes,
// per-message drop/duplicate fates, and partition cuts — in addition to
// the scheduling decision points; DistributedTarget explores the
// scheduling decision points alone.
type FaultOpts struct {
	// Global selects the global-ceiling-manager architecture; false
	// selects local ceilings over full replication.
	Global bool
	// Placement, when set to a non-full policy, explores that
	// placed mode (sharded, quorum, or primary-only) instead of the
	// paper's two architectures; Global must be false. Quorum
	// parameters take the cluster defaults.
	Placement place.Policy
	// Seed drives the workload stream (default 1).
	Seed int64
	// Sites, DBSize, CommDelay and CPUPerObj shape the cluster; the
	// generated load is ten update transactions of mean size three.
	Sites     int
	DBSize    int
	CommDelay sim.Duration
	CPUPerObj sim.Duration
	// Space bounds the failure decisions surfaced to the chooser. Zero
	// takes a calibrated default sized to the exploration workload:
	// crash decisions every 25ms across the arrival window, 80ms
	// outages, fates on the first 12 inter-site messages, and two
	// partition-cut decisions.
	Space faults.Space
	// WALForceFault, when set, is passed through to the cluster: a
	// seeded weakening hook that drops chosen WAL vote forces (see
	// dist.Config.WALForceFault). Present in both exploration and plan
	// replay, so a found counterexample replays against the same
	// weakened system.
	WALForceFault func(site db.SiteID, txID int64) bool
	// Load overrides the generated workload with a hand-built one
	// (tests). The transactions are shared read-only across schedules.
	Load []*workload.Txn
}

// FaultTarget builds the exploration target for one distributed
// architecture with fault injection promoted into the decision tree.
// Runs execute under the full fault machinery (WAL-forced votes,
// presumed-abort retries, failover managers) and are audited with the
// recovery-correctness family; each Outcome carries the failure
// schedule the run committed to, and RunPlan replays such a plan —
// byte-identically for fault-only schedules — without a chooser.
func FaultTarget(o FaultOpts) (Target, error) { return clusterTarget(o, true) }

// clusterTarget builds a cluster exploration target. Its two rows
// differ in whether the fault machinery is armed, and with that in the
// name and journal-key prefix and in the auditors a run answers to;
// unarmed, the fault fields of o are unused.
func clusterTarget(o FaultOpts, armed bool) (Target, error) {
	kind := "dist"
	if armed {
		kind = "fault"
	}
	mode, err := dist.ModeFor(o.Global, o.Placement)
	if err != nil {
		return Target{}, err
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sites <= 0 {
		o.Sites = 3
	}
	if o.DBSize <= 0 {
		o.DBSize = defaultDBSize
	}
	if o.CommDelay <= 0 {
		o.CommDelay = 10 * sim.Millisecond
	}
	if o.CPUPerObj <= 0 {
		o.CPUPerObj = defaultCPUPerObj
	}
	if armed && len(o.Space.CrashPoints) == 0 && o.Space.MaxMsgFates == 0 && len(o.Space.CutPoints) == 0 {
		// Calibrated to the default workload: ~10 arrivals over ~300ms,
		// so crash decisions cover the arrival window, an outage spans
		// several 2PC rounds, and cut decisions land mid-traffic.
		for at := int64(25 * sim.Millisecond); at <= int64(150*sim.Millisecond); at += int64(25 * sim.Millisecond) {
			o.Space.CrashPoints = append(o.Space.CrashPoints, at)
		}
		o.Space.DownFor = int64(80 * sim.Millisecond)
		o.Space.MaxMsgFates = 12
		o.Space.AllowDup = true
		o.Space.CutPoints = []int64{int64(60 * sim.Millisecond), int64(130 * sim.Millisecond)}
		o.Space.CutFor = int64(60 * sim.Millisecond)
	}
	cfg := dist.Config{
		Mode:          mode,
		Sites:         o.Sites,
		Objects:       o.DBSize,
		CommDelay:     o.CommDelay,
		CPUPerObj:     o.CPUPerObj,
		WALForceFault: o.WALForceFault,
	}
	load := o.Load
	if load == nil {
		// The workload depends only on the catalog layout, a pure function
		// of the configuration: generate it once against a throwaway
		// cluster's catalog and share it read-only across schedules.
		layout, err := dist.NewCluster(cfg)
		if err != nil {
			return Target{}, err
		}
		load, err = workload.Generate(workload.Params{
			Seed:             o.Seed,
			Catalog:          layout.Catalog,
			Count:            clusterCount,
			MeanInterarrival: 30 * sim.Millisecond,
			MeanSize:         clusterMeanSize,
			PerObjCost:       o.CPUPerObj,
			SlackMin:         4,
			SlackMax:         8,
			LocalWriteSets:   mode.LocalWriteSets(),
		})
		if err != nil {
			return Target{}, err
		}
	}
	key := fmt.Sprintf("explore/%s/%s/sites=%d/db=%d/count=%d/size=%d/ro=0",
		kind, mode, o.Sites, o.DBSize, len(load), clusterMeanSize)
	// run executes one schedule: under the chooser (plan == nil), which
	// on an armed target also drives the fault space, or under a fixed
	// replayed plan (ch == nil). Both paths share the journal key and
	// seed, which is what makes a fault-only counterexample's replay
	// byte-identical.
	run := func(ch sim.Chooser, plan *faults.Plan) (*Outcome, error) {
		jrn := getJournal(o.Seed, key)
		defer putJournal(jrn)
		c := cfg
		c.Journal = jrn
		cluster, err := dist.NewCluster(c)
		if err != nil {
			return nil, err
		}
		if armed {
			in := faults.New(plan, o.Seed)
			if plan == nil {
				in = in.Arm(o.Space)
			}
			if err := cluster.AttachFaults(in); err != nil {
				return nil, err
			}
		}
		cluster.K.SetChooser(ch)
		cluster.Load(load)
		cluster.Run()
		return &Outcome{
			JournalHash: jrn.HashString(),
			Violations:  audit.Run(jrn, audit.ForCluster(mode.String(), armed)...),
			FaultPlan:   cluster.ChosenFaultPlan(), // nil unarmed
		}, nil
	}
	t := Target{
		Name: kind + "/" + mode.String(),
		Run:  func(ch sim.Chooser) (*Outcome, error) { return run(ch, nil) },
	}
	if armed {
		t.RunPlan = func(plan *faults.Plan) (*Outcome, error) { return run(nil, plan) }
	}
	return t, nil
}
