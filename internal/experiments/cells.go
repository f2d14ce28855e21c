package experiments

import (
	"fmt"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// cell is one point of a sweep: a complete, comparable description of a
// configuration (so it keys the sweep's memo) that knows how to run
// itself once, checked by its auditors as it goes when audited.
type cell interface {
	schedule() (runs int, baseSeed int64, audit bool)
	run(seed int64, audited bool) (outcome, error)
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

// outcome is everything a figure can read off one run.
type outcome struct {
	sum      stats.Summary
	net      stats.NetReport       // distributed runs
	repl     dist.ReplicationStats // distributed runs
	recovery sim.Duration          // estimated restart time, WAL runs
	// violations are the auditors' findings, audited runs only.
	violations []audit.Violation
}

// auditJournal returns a journal that checks a run against auds as it
// is written and keeps no records, or nil when there is nothing to check.
func auditJournal(seed int64, auds []audit.Auditor) *journal.Journal {
	if len(auds) == 0 {
		return nil
	}
	j := journal.New(seed, "")
	audit.Tee(j, true, auds...)
	return j
}

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

// run executes one single-site run.
func (c singleCell) run(seed int64, audited bool) (outcome, error) {
	row, err := core.Lookup(c.proto)
	if err != nil {
		return outcome{}, fmt.Errorf("experiments: %w", err)
	}
	var auds []audit.Auditor
	if audited {
		auds = audit.ForManager(row.Name)
	}
	cat, err := db.NewCatalog(1, c.dbSize)
	if err != nil {
		return outcome{}, err
	}
	load, err := workload.Generate(workload.Params{
		Seed:              seed,
		Catalog:           cat,
		Count:             c.count,
		MeanInterarrival:  c.meanInterarrival,
		MeanSize:          c.size,
		ReadOnlyFrac:      c.mix,
		PerObjCost:        c.cpuPerObj + c.ioPerObj,
		SlackMin:          c.slackMin,
		SlackMax:          c.slackMax,
		Policy:            c.policy,
		HotspotFrac:       0.1,
		HotspotProb:       c.hotspot,
		PeriodicFrac:      c.periodic,
		ImplicitDeadlines: true, // read by periodic instances only
	})
	if err != nil {
		return outcome{}, err
	}
	sys, err := txn.NewSystem(txn.Config{
		CPUPerObj:       c.cpuPerObj,
		IOPerObj:        c.ioPerObj,
		CPUDiscipline:   row.Discipline,
		NewManager:      row.New,
		BufferPages:     c.buffer,
		LockOverhead:    c.overhead,
		WAL:             c.wal,
		CheckpointEvery: c.checkpoint,
		Journal:         auditJournal(seed, auds),
	})
	if err != nil {
		return outcome{}, err
	}
	sys.Load(load)
	o := outcome{sum: sys.Run()}
	if sys.Log != nil {
		// 0.1ms/object snapshot load + 1ms/record redo.
		o.recovery = sys.Log.RecoveryTime(sim.Millisecond/10, sim.Millisecond)
	}
	o.violations = audit.Finish(auds...)
	return o, nil
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

// run executes one distributed run.
func (c distCell) run(seed int64, audited bool) (outcome, error) {
	var plan *faults.Plan
	if c.faults {
		// The last arrival lands around count x interarrival, and the
		// generator places every fault inside the first 85% of that
		// horizon, so crashes and partitions hit live load rather than
		// the drained tail.
		var err error
		plan, err = faults.Generate(seed, faults.GenParams{
			Sites:    c.sites,
			Horizon:  int64(sim.Duration(c.count) * c.meanInterarrival),
			Severity: c.severity,
		})
		if err != nil {
			return outcome{}, err
		}
	}
	var auds []audit.Auditor
	if audited {
		auds = audit.ForPlacement(c.mode.String())
		if !plan.Empty() {
			auds = audit.ForFaults(c.mode.String())
		}
	}
	cfg := dist.Config{
		Mode:         c.mode,
		Replicas:     c.k,
		ReadQuorum:   c.r,
		WriteQuorum:  c.w,
		Sites:        c.sites,
		Objects:      c.objects,
		GCMSite:      c.gcm,
		CPUPerObj:    c.cpuPerObj,
		Multiversion: c.multiversion,
		Journal:      auditJournal(seed, auds),
	}
	if c.star {
		topo, err := netsim.Star(c.sites, 0, c.delay)
		if err != nil {
			return outcome{}, err
		}
		cfg.Topology = topo
	} else {
		cfg.CommDelay = c.delay
	}
	cluster, err := dist.NewCluster(cfg)
	if err != nil {
		return outcome{}, err
	}
	if plan != nil {
		if err := cluster.AttachFaults(plan, seed); err != nil {
			return outcome{}, err
		}
	}
	load, err := workload.Generate(workload.Params{
		Seed:             seed,
		Catalog:          cluster.Catalog,
		Count:            c.count,
		MeanInterarrival: c.meanInterarrival,
		MeanSize:         c.meanSize,
		ReadOnlyFrac:     c.mix,
		PerObjCost:       c.cpuPerObj,
		SlackMin:         c.slackMin,
		SlackMax:         c.slackMax,
		LocalWriteSets:   c.mode.LocalWriteSets(),
		LocalityProb:     c.locality,
	})
	if err != nil {
		return outcome{}, err
	}
	cluster.Load(load)
	o := outcome{sum: cluster.Run(), net: cluster.NetReport(), repl: cluster.Replication()}
	o.violations = audit.Finish(auds...)
	return o, nil
}
