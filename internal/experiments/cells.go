package experiments

import (
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

// base is what a parameter set fixes for every cell of its family: the
// run schedule and the load no figure varies.
type base struct {
	runs             int
	baseSeed         int64
	audit            bool
	count            int
	cpuPerObj        sim.Duration
	meanInterarrival sim.Duration
	slackMin         float64
	slackMax         float64
}

func (b base) schedule() (int, int64, bool) { return b.runs, b.baseSeed, b.audit }

// singleCell is one single-site configuration: the family's base plus
// what the single-site figures vary. The zero value of every field after
// policy leaves that mechanism off.
type singleCell struct {
	base
	ioPerObj   sim.Duration
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
	return singleCell{
		base:     base{p.Runs, p.BaseSeed, p.Audit, p.Count, p.CPUPerObj, p.MeanInterarrival, p.SlackMin, p.SlackMax},
		ioPerObj: p.IOPerObj, proto: proto, size: size, dbSize: p.DBSize, mix: p.ReadOnlyFrac, policy: p.Policy}
}

// run executes one single-site run through the assembly; the figures
// read only its aggregates.
func (c singleCell) run(seed int64, audited bool) (*Result, error) {
	return runSingleSite(SingleSiteConfig{
		Protocol: c.proto, DBSize: c.dbSize, CPUPerObj: c.cpuPerObj, IOPerObj: c.ioPerObj,
		BufferPages: c.buffer, WAL: c.wal, CheckpointEvery: c.checkpoint, Audit: audited, lockOverhead: c.overhead,
		// ImplicitDeadlines is read by periodic instances only.
		Workload: WorkloadConfig{Seed: seed, Count: c.count, MeanInterarrival: c.meanInterarrival, MeanSize: c.size,
			ReadOnlyFrac: c.mix, SlackMin: c.slackMin, SlackMax: c.slackMax, PeriodicFrac: c.periodic,
			ImplicitDeadlines: true, policy: c.policy, hotspot: c.hotspot},
	}, false)
}

// distCell is one distributed configuration: the family's base plus
// what the distributed figures vary.
type distCell struct {
	base
	objects  int
	meanSize int
	mode     dist.Mode
	sites    int
	// delay is the one-way delay of a uniform full mesh, or with star
	// the per-link delay of a star around site 0.
	delay        sim.Duration
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
	cfg := DistributedConfig{
		Replicas: c.k, ReadQuorum: c.r, WriteQuorum: c.w, Sites: c.sites, DBSize: c.objects, GCMSite: c.gcm,
		CPUPerObj: c.cpuPerObj, Multiversion: c.multiversion, FaultSeed: seed, Audit: audited,
		Workload: WorkloadConfig{Seed: seed, Count: c.count, MeanInterarrival: c.meanInterarrival, MeanSize: c.meanSize,
			ReadOnlyFrac: c.mix, SlackMin: c.slackMin, SlackMax: c.slackMax, LocalityProb: c.locality},
	}
	if c.faults {
		// The last arrival lands around count x interarrival, and the
		// generator places every fault inside the first 85% of that
		// horizon, so crashes and partitions hit live load rather than
		// the drained tail.
		plan, err := faults.Generate(seed, faults.GenParams{
			Sites:    c.sites,
			Horizon:  int64(sim.Duration(c.count) * c.meanInterarrival),
			Severity: c.severity,
		})
		if err != nil {
			return nil, err
		}
		cfg.Faults = plan
	}
	if c.star {
		topo, err := netsim.Star(c.sites, 0, c.delay)
		if err != nil {
			return nil, err
		}
		cfg.Topology = topo
	} else {
		cfg.CommDelay = c.delay
	}
	return runDistributed(cfg, c.mode, false)
}
