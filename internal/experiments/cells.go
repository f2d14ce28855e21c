package experiments

import (
	"cmp"

	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/faults"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// cell is one point of a sweep: a complete, comparable description of a
// configuration (so it keys the sweep's memo) that knows how to run
// itself once, checked by its auditors as it goes when audited.
type cell interface {
	schedule() (runs int, baseSeed int64, audit bool)
	run(seed int64, audited bool) (*Result, error)
}

func (s Schedule) schedule() (int, int64, bool) { return s.Runs, s.BaseSeed, s.Audit }

// singleCell is one single-site configuration: its family's schedule
// plus what the single-site figures vary on SingleSiteConfig's defaults.
// A zero dbSize keeps the default; the zero value of every field after
// it leaves that mechanism off.
type singleCell struct {
	Schedule
	proto      Protocol
	size       int // mean transaction size
	dbSize     int
	mix        float64 // read-only fraction
	policy     workload.PriorityPolicy
	buffer     int          // LRU buffer pages
	hotspot    float64      // probability of an access landing in the hottest 10%
	periodic   float64      // fraction of updates that are periodic instances
	overhead   sim.Duration // CPU charged per lock operation
	wal        bool
	checkpoint sim.Duration // WAL checkpoint interval, 0 = never
}

// cell is the paper's setting at one protocol and size.
func (p SingleSiteParams) cell(proto Protocol, size int) singleCell {
	return singleCell{Schedule: p.Schedule, proto: proto, size: size}
}

// run executes one single-site run through the assembly; the figures
// read only its aggregates.
func (c singleCell) run(seed int64, audited bool) (*Result, error) {
	var cfg SingleSiteConfig
	cfg.fill()
	cfg.Protocol = c.proto
	cfg.DBSize = cmp.Or(c.dbSize, cfg.DBSize)
	cfg.BufferPages = c.buffer
	cfg.WAL, cfg.CheckpointEvery = c.wal, c.checkpoint
	cfg.lockOverhead = c.overhead
	cfg.Audit = audited
	w := &cfg.Workload
	w.Seed, w.Count = seed, c.Count
	w.MeanSize, w.ReadOnlyFrac = c.size, c.mix
	w.PeriodicFrac, w.policy, w.hotspot = c.periodic, c.policy, c.hotspot
	// ImplicitDeadlines is read by periodic instances only.
	w.ImplicitDeadlines = true
	return runSingleSite(cfg, false)
}

// distCell is one distributed configuration: its family's schedule plus
// what the distributed figures vary on DistributedConfig's defaults. A
// zero objects or sites keeps the default.
type distCell struct {
	Schedule
	objects int
	mode    dist.Mode
	sites   int
	// delay is the one-way delay, in units of the per-object CPU cost,
	// of a uniform full mesh, or with star the per-link delay of a star
	// around site 0.
	delay        float64
	star         bool
	gcm          db.SiteID // global mode's ceiling manager site
	multiversion bool
	mix          float64 // read-only fraction
	// locality biases accesses toward the home shard in the modes that
	// spread write sets (full replication homes whole write sets).
	locality float64
	k, r, w  int  // quorum replica-set, read and write sizes
	faults   bool // attach a fault plan generated at severity
	severity float64
}

// run executes one distributed run through the assembly.
func (c distCell) run(seed int64, audited bool) (*Result, error) {
	var cfg DistributedConfig
	cfg.fill()
	cfg.Sites = cmp.Or(c.sites, cfg.Sites)
	cfg.DBSize = cmp.Or(c.objects, cfg.DBSize)
	cfg.CommDelay = sim.Duration(c.delay * float64(cfg.CPUPerObj))
	cfg.GCMSite = c.gcm
	cfg.Multiversion = c.multiversion
	cfg.Replicas, cfg.ReadQuorum, cfg.WriteQuorum = c.k, c.r, c.w
	cfg.FaultSeed = seed
	cfg.Audit = audited
	w := &cfg.Workload
	w.Seed, w.Count = seed, c.Count
	w.ReadOnlyFrac, w.LocalityProb = c.mix, c.locality
	if c.faults {
		// The last arrival lands around count x interarrival, and the
		// generator places every fault inside the first 85% of that
		// horizon, so crashes and partitions hit live load rather than
		// the drained tail. A fault cell names its site count, so zero
		// sites fails here rather than taking the default.
		plan, err := faults.Generate(seed, faults.GenParams{
			Sites:    c.sites,
			Horizon:  int64(sim.Duration(w.Count) * w.MeanInterarrival),
			Severity: c.severity,
		})
		if err != nil {
			return nil, err
		}
		cfg.Faults = plan
	}
	if c.star {
		topo, err := netsim.Star(cfg.Sites, 0, cfg.CommDelay)
		if err != nil {
			return nil, err
		}
		cfg.Topology, cfg.CommDelay = topo, 0
	}
	return runDistributed(cfg, c.mode, false)
}
