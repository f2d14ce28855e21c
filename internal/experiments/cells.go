package experiments

import (
	"cmp"
	"fmt"

	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/faults"
	"rtlock/internal/netsim"
	"rtlock/internal/place"
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

// The families' built-in bases, each cell's run when Params.Base sets no
// config of its mode: the run configs' defaults, plus for the site family
// a 240-object database under a locality-skewed 50/50 mix, and for the
// fault family a 50/50 mix (its 3 sites and 2-unit delay are the
// defaults). A cell holds its base by pointer and copies it to run, so
// cells on one base compare equal and no run writes a base.
var (
	singleBase SingleSiteConfig
	distBase   DistributedConfig
	siteBase   = DistributedConfig{DBSize: 240, Workload: WorkloadConfig{ReadOnlyFrac: 0.5, LocalityProb: 0.7}}
	faultBase  = DistributedConfig{Workload: WorkloadConfig{ReadOnlyFrac: 0.5}}
)

// singleCell is one single-site configuration: its family's schedule, its
// base, and what its row sets on the base: the protocol, the priority
// policy, the mean transaction size and, unless axis is axisSize, the
// setting the row sweeps, at x. Every other setting is the base's, so a
// zero the row sets is set, and one it does not set is the base's.
type singleCell struct {
	Schedule
	base   *SingleSiteConfig
	proto  Protocol
	policy workload.PriorityPolicy
	size   int
	axis   singleAxis
	x      float64
}

// singleAxis is the setting a single-site row sweeps at a fixed size, or
// axisSize for a row sweeping the size itself.
type singleAxis int

const (
	axisSize       singleAxis = iota
	axisDBSize                // database objects
	axisMix                   // read-only fraction
	axisHotspot               // probability of an access landing in the hottest 10%
	axisBuffer                // LRU buffer pages
	axisPeriodic              // fraction of updates that are periodic instances
	axisOverhead              // CPU ms charged per lock operation
	axisCheckpoint            // WAL on, checkpoint interval in seconds (never: none)
)

// sweep is what a single-site row varies: axis at a fixed size, or with
// axisSize the size.
type sweep struct {
	axis singleAxis
	size int
}

// bySize sweeps the transaction size.
var bySize = sweep{axis: axisSize}

// single is a cell of the single-site family: proto on the base, swept
// as sw at x.
func (p *Params) single(proto Protocol, sw sweep, x float64) singleCell {
	c := singleCell{Schedule: p.Single.Schedule, base: cmp.Or(p.Base.Single, &singleBase),
		proto: proto, size: sw.size, axis: sw.axis, x: x}
	if sw.axis == axisSize {
		c.size, c.x = int(x), 0
	}
	return c
}

// run executes one single-site run through the assembly; the figures
// read only its aggregates.
func (c singleCell) run(seed int64, audited bool) (*Result, error) {
	cfg := *c.base
	cfg.fill()
	cfg.Protocol = c.proto
	cfg.Audit = cfg.Audit || audited
	w := &cfg.Workload
	w.Seed, w.Count = seed, c.Count
	w.MeanSize, w.policy = c.size, c.policy
	// ImplicitDeadlines is read by periodic instances only.
	w.ImplicitDeadlines = true
	switch c.axis {
	case axisDBSize:
		cfg.DBSize = int(c.x)
	case axisMix:
		w.ReadOnlyFrac = c.x
	case axisHotspot:
		w.hotspot = c.x
	case axisBuffer:
		cfg.BufferPages = int(c.x)
	case axisPeriodic:
		w.PeriodicFrac = c.x
	case axisOverhead:
		cfg.lockOverhead = sim.Duration(c.x * float64(sim.Millisecond))
	case axisCheckpoint:
		cfg.WAL, cfg.CheckpointEvery = true, 0
		if c.x != never {
			cfg.CheckpointEvery = sim.Duration(c.x * float64(sim.Second))
		}
	}
	return runSingleSite(cfg, false)
}

// distCell is one distributed configuration: its family's schedule, its
// base, and what its row sets on the base: the execution mode, a nonzero
// site count, the settings set marks, the star topology of the placement
// row and the fault sweep's generated plan. Every other setting is the
// base's.
type distCell struct {
	Schedule
	base  *DistributedConfig
	mode  dist.Mode
	sites int
	set   distAxes
	mix   float64 // read-only fraction
	// delay is the one-way delay, in units of the per-object CPU cost,
	// of a uniform full mesh, or with star the per-link delay of a star
	// around site 0.
	delay        float64
	multiversion bool
	star         bool
	gcm          db.SiteID // global mode's ceiling manager site, with star
	faults       bool      // attach a fault plan generated at severity
	severity     float64
}

// distAxes marks the settings a distributed row sets.
type distAxes uint8

const (
	setMix distAxes = 1 << iota
	setDelay
	setMultiversion
)

// distributed is the base of a distributed family whose built-in base is
// def.
func (p *Params) distributed(def *DistributedConfig) *DistributedConfig {
	return cmp.Or(p.Base.Distributed, def)
}

// paper is a cell of the Figures 4–6 family: one of the paper's two
// architectures at a mix and a communication delay in units of the
// per-object CPU cost.
func (p *Params) paper(mode dist.Mode, mix, delayUnits float64) distCell {
	return distCell{Schedule: p.Dist.Schedule, base: p.distributed(&distBase), mode: mode,
		set: setMix | setDelay, mix: mix, delay: delayUnits}
}

// site is a cell of the site family: a placement policy at a site count.
// An unknown policy maps to the zero mode, which the cluster rejects.
func (p *Params) site(pol place.Policy, sites int) distCell {
	mode, _ := dist.ModeFor(false, pol)
	return distCell{Schedule: p.SiteSweep.Schedule, base: p.distributed(&siteBase), mode: mode, sites: sites}
}

// faulted is a cell of the fault family: an architecture under a fault
// plan generated at severity.
func (p *Params) faulted(mode dist.Mode, severity float64) distCell {
	return distCell{Schedule: p.Faults.Schedule, base: p.distributed(&faultBase), mode: mode,
		faults: true, severity: severity}
}

// run executes one distributed run through the assembly.
func (c distCell) run(seed int64, audited bool) (*Result, error) {
	cfg := *c.base
	cfg.fill()
	cfg.Sites = cmp.Or(c.sites, cfg.Sites)
	if c.mode.LocalWriteSets() {
		// Every site holds every object: locality means nothing.
		cfg.Workload.LocalityProb = 0
	}
	if c.mode != dist.Quorum {
		cfg.Replicas, cfg.ReadQuorum, cfg.WriteQuorum = 0, 0, 0
	}
	if c.set&setDelay != 0 {
		cfg.CommDelay, cfg.Topology = sim.Duration(c.delay*float64(cfg.CPUPerObj)), nil
	}
	if c.set&setMultiversion != 0 {
		cfg.Multiversion = c.multiversion
	}
	cfg.FaultSeed = seed
	cfg.Audit = cfg.Audit || audited
	w := &cfg.Workload
	w.Seed, w.Count = seed, c.Count
	if c.set&setMix != 0 {
		w.ReadOnlyFrac = c.mix
	}
	if c.faults {
		// The last arrival lands around count x interarrival, and the
		// generator places every fault inside the first 85% of that
		// horizon, so crashes and partitions hit live load rather than
		// the drained tail.
		plan, err := faults.Generate(seed, faults.GenParams{
			Sites:    cfg.Sites,
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
		cfg.Topology, cfg.CommDelay, cfg.GCMSite = topo, 0, c.gcm
	}
	return runDistributed(cfg, c.mode, false)
}

// Check reports why the named figures cannot run on p's base: a figure
// of the other mode, or a base key that no cell would take. Every other
// key reaches each cell's run unless the row sets it.
func (p *Params) Check(names ...string) error {
	s, d := p.Base.Single, p.Base.Distributed
	var key, why string
	switch {
	case s != nil:
		key, why = unusedKey(s.Workload, s.Journal, s.Metrics, s.RecordHistory,
			s.MetricsInterval, s.TimelineWindow, s.MaxRawRecords, s.TraceEvents)
	case d != nil:
		key, why = unusedKey(d.Workload, d.Journal, d.Metrics, d.RecordHistory,
			d.MetricsInterval, d.TimelineWindow, d.MaxRawRecords, 0)
	}
	for _, name := range names {
		r, err := lookup(name)
		switch {
		case err != nil:
			return err
		case s == nil && d == nil: // each row's built-in base
		case (d != nil) != (r.kind != singleRow):
			return fmt.Errorf("experiments: %s runs on a %s base, not a %s one", name, modeName[r.kind != singleRow], modeName[d != nil])
		case key != "":
			return fmt.Errorf("experiments: base key %q: %s", key, why)
		case r.kind == faultRow && d.Faults != nil:
			return fmt.Errorf("experiments: base key %q: %s generates a fault plan per run", "faults", name)
		}
	}
	return nil
}

// unusedKey names the first set base key that no figure cell takes, and
// why, or returns "": the run schedule sets each run's count and seed,
// and a figure shows none of the outputs the other keys ask for.
func unusedKey(w WorkloadConfig, journal, metrics, history bool, interval, window sim.Duration, maxRaw, trace int) (key, why string) {
	const schedule, output = "the run schedule sets each run's count and seed", "a figure shows only each run's aggregates"
	for _, k := range []struct {
		name, why string
		set       bool
	}{
		{"workload.count", schedule, w.Count != 0},
		{"workload.seed", schedule, w.Seed != 0},
		{"journal", output, journal},
		{"metrics", output, metrics},
		{"metricsIntervalMs", output, interval != 0},
		{"timelineWindowMs", output, window != 0},
		{"maxRawRecords", output, maxRaw != 0},
		{"traceEvents", output, trace != 0},
		{"recordHistory", output, history},
	} {
		if k.set {
			return k.name, k.why
		}
	}
	return "", ""
}

var modeName = map[bool]string{false: "single", true: "distributed"}
