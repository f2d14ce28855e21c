// Package rtlock is a simulation library for real-time database locking
// protocols, reproducing Son & Chang, "Performance Evaluation of
// Real-Time Locking Protocols using a Distributed Software Prototyping
// Environment".
//
// The library bundles a deterministic process-oriented discrete-event
// kernel (the StarLite role in the paper's prototyping environment), a
// real-time transaction runtime with hard deadlines and restarts, nine
// concurrency-control protocols — the priority ceiling protocol (with
// read/write or exclusive lock semantics), two-phase locking with and
// without priority, basic priority inheritance, High-Priority and
// conditional-restart wounding, waits-for deadlock detection, and basic
// timestamp ordering — and the two distributed architectures of the
// paper: a global ceiling manager (with message-based two-phase commit)
// and local ceiling managers over fully replicated data with
// asynchronous update propagation, optional multi-version snapshot
// reads, configurable topologies, and site-failure injection.
//
// Quick start:
//
//	res, err := rtlock.RunSingleSite(rtlock.SingleSiteConfig{
//		Protocol: rtlock.Ceiling,
//		Workload: rtlock.WorkloadConfig{Count: 500, MeanSize: 8},
//	})
//	fmt.Println(res.Summary)
//
// The experiment harness in ReproduceAll (or per-figure functions)
// regenerates the tables and figures of the paper's evaluation; the
// rtdbsim command wraps them, and the further ablations, on the command
// line.
package rtlock

import (
	"bytes"
	"fmt"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/experiments"
	"rtlock/internal/explore"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/netsim"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

// Protocol selects a concurrency-control protocol, using the paper's
// letters.
type Protocol = core.Protocol

// The protocols of the study: public names for the rows of the protocol
// table (internal/core/protocols.go), which says what each one is.
const (
	// Ceiling is the priority ceiling protocol (C in the paper).
	Ceiling = core.ProtoCeiling
	// CeilingExclusive is the ceiling protocol with exclusive-only
	// lock semantics (the §5 ablation).
	CeilingExclusive = core.ProtoCeilingX
	// TwoPLPriority is two-phase locking with priority mode (P).
	TwoPLPriority = core.ProtoTwoPLPrio
	// TwoPL is two-phase locking without priority mode (L).
	TwoPL = core.ProtoTwoPL
	// TwoPLInherit is two-phase locking with basic priority
	// inheritance (§3.1).
	TwoPLInherit = core.ProtoInherit
	// TwoPLHighPriority is two-phase locking with High-Priority
	// wounding: conflicting lower-priority holders are aborted and
	// restarted.
	TwoPLHighPriority = core.ProtoTwoPLHP
	// TwoPLDetect is two-phase locking with waits-for deadlock
	// detection; victims restart.
	TwoPLDetect = core.ProtoTwoPLDD
	// TimestampOrdering is basic timestamp ordering — non-blocking,
	// abort-based.
	TimestampOrdering = core.ProtoTimestamp
	// TwoPLConditional is two-phase locking with conditional restart:
	// wound a lower-priority holder only when the requester's slack
	// cannot absorb the wait.
	TwoPLConditional = core.ProtoTwoPLCR
)

// Re-exported workload types, so callers can hand-craft transactions.
type (
	// Txn is one transaction: timing constraints, home site, and
	// access sequence.
	Txn = workload.Txn
	// Op is one access in a transaction.
	Op = workload.Op
	// Kind distinguishes update from read-only transactions.
	Kind = workload.Kind
	// ObjectID names a data object.
	ObjectID = core.ObjectID
	// Mode is a lock mode.
	Mode = core.Mode
	// SiteID identifies a site.
	SiteID = db.SiteID
	// Duration is simulated time; use the Millisecond/Second
	// constants.
	Duration = sim.Duration
	// Time is a simulated instant.
	Time = sim.Time
	// Summary is the aggregate result of a run.
	Summary = stats.Summary
	// TxRecord is the performance monitor's per-transaction record.
	TxRecord = stats.TxRecord
	// Figure is one reproduced table/figure.
	Figure = experiments.Figure
	// Outcome classifies how a transaction left the system.
	Outcome = stats.Outcome
	// Trace is the performance monitor's event log: the
	// transaction-level records of the run's journal.
	Trace = stats.Trace
	// TraceEvent is one record in a Trace, with the blocked interval a
	// lock grant ended.
	TraceEvent = stats.Event
	// Topology is a site interconnect with per-pair delays.
	Topology = netsim.Topology
	// ReplicationStats aggregates the local approach's replica
	// behavior.
	ReplicationStats = dist.ReplicationStats
	// NetReport aggregates a distributed run's message-layer counters:
	// sends, deliveries, and per-cause losses.
	NetReport = stats.NetReport
	// FaultPlan is a deterministic fault-injection schedule: site
	// crash/recover windows, per-link loss/duplication/jitter, and
	// symmetric partitions. Identical (seed, config, plan) triples
	// replay byte-identically.
	FaultPlan = faults.Plan
	// FaultCrash schedules one site crash (and optional recovery).
	FaultCrash = faults.Crash
	// FaultLink degrades messages on matching links for a window.
	FaultLink = faults.LinkFault
	// FaultPartition splits the sites into two groups for a window.
	FaultPartition = faults.Partition
	// FaultGenParams parameterizes GenerateFaultPlan.
	FaultGenParams = faults.GenParams
	// MetricsRegistry is the deterministic metrics registry a run fills
	// when the Metrics flag is set: live series values, whose snapshots
	// the run's window rows carry. Export it with Prometheus, MetricsCSV
	// or HTMLReport.
	MetricsRegistry = metrics.Registry
	// LockProfile is the lock-contention profile a Metrics run builds
	// from its journal records as they are written: per-object
	// wait/hold/inversion totals, abort causes, and folded
	// blocking-chain stacks. Top cuts its object table to the k
	// hottest.
	LockProfile = metrics.Profile
	// ObjectProfile is one contended object's row in a LockProfile.
	ObjectProfile = metrics.ObjectProfile
	// TimelineRow is one virtual-time window of the run's window ring:
	// throughput, miss %, response quantiles, lock-wait quantiles, net
	// loss/dup, the in-flight gauge and, in a Metrics run, a snapshot of
	// the registry.
	TimelineRow = metrics.TimelineRow
)

// HTMLReport renders the static self-contained HTML observability
// report of a completed run: the header's horizon and sample count from
// its window rows, then the registry's final state and the
// lock-contention profile, or the per-window table when reg is nil. No
// scripts or timestamps, so identical runs render byte-identical
// reports.
func HTMLReport(title string, reg *MetricsRegistry, prof *LockProfile, rows []TimelineRow) []byte {
	var b bytes.Buffer
	_ = metrics.WriteHTML(&b, title, reg, prof, rows)
	return b.Bytes()
}

// MetricsCSV renders a Metrics run's registry snapshots, one line per
// window row, as deterministic CSV (metrics.csv).
func MetricsCSV(reg *MetricsRegistry, rows []TimelineRow) []byte { return metrics.CSV(reg, rows) }

// TimelineJSONL renders timeline rows as deterministic JSONL (one JSON
// object per window; see README "Timeline export" for the schema).
func TimelineJSONL(rows []TimelineRow) []byte { return metrics.JSONL(rows) }

// TimelineCSV renders timeline rows as deterministic CSV (timeline.csv).
func TimelineCSV(rows []TimelineRow) []byte { return metrics.CSV(nil, rows) }

// ParseFaultPlan decodes a JSON fault plan (strict: unknown fields are
// errors) and validates nothing beyond syntax; RunDistributed validates
// against the cluster's site count.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return faults.Parse(data) }

// GenerateFaultPlan derives a random-but-reproducible fault plan from a
// seed and a severity knob; the same arguments always yield the same
// plan.
func GenerateFaultPlan(seed int64, p FaultGenParams) (*FaultPlan, error) {
	return faults.Generate(seed, p)
}

// Convenience re-exports.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	Read  = core.Read
	Write = core.Write

	Update   = workload.Update
	ReadOnly = workload.ReadOnly

	// Committed and DeadlineMissed are the transaction outcomes.
	Committed      = stats.Committed
	DeadlineMissed = stats.DeadlineMissed

	// Trace event kinds: the journal kinds of a Trace's records.
	TraceEventArrive       = journal.KArrive
	TraceEventLockRequest  = journal.KLockRequest
	TraceEventLockGrant    = journal.KLockGrant
	TraceEventCommit       = journal.KCommit
	TraceEventDeadlineMiss = journal.KDeadlineMiss
	TraceEventRestart      = journal.KRestart
)

// The run configurations and their outcome: the one run assembly in
// internal/experiments, which the figures and the streaming soak run
// through too. Their fields are documented there.
type (
	// WorkloadConfig describes the generated transaction load, following
	// the paper's model: exponential interarrival, uniform object
	// selection, deadlines proportional to size, earliest-deadline-highest
	// priorities.
	WorkloadConfig = experiments.WorkloadConfig
	// SingleSiteConfig configures a single-site run (the setting of the
	// paper's Figures 2–3).
	SingleSiteConfig = experiments.SingleSiteConfig
	// DistributedConfig configures a distributed run (the setting of
	// Figures 4–6).
	DistributedConfig = experiments.DistributedConfig
	// SiteFailure makes a site unreachable from At until RecoverAt (no
	// recovery when RecoverAt is not after At).
	SiteFailure = experiments.SiteFailure
	// RecoveryInfo summarizes the write-ahead log after a WAL-enabled
	// run.
	RecoveryInfo = experiments.RecoveryInfo
	// Result is the outcome of a run.
	Result = experiments.Result
)

// RunSingleSite executes one single-site simulation; zero fields take
// the defaults SingleSiteConfig documents.
func RunSingleSite(cfg SingleSiteConfig) (*Result, error) { return experiments.RunSingleSite(cfg) }

// RunDistributed executes one distributed simulation; zero fields take
// the defaults DistributedConfig documents.
func RunDistributed(cfg DistributedConfig) (*Result, error) { return experiments.RunDistributed(cfg) }

// NewFullMesh builds a fully connected topology with a uniform delay.
func NewFullMesh(sites int, delay Duration) (*Topology, error) {
	return netsim.FullMesh(sites, delay)
}

// NewRing builds a ring topology; delay between sites is the shorter way
// around times the link delay.
func NewRing(sites int, link Duration) (*Topology, error) {
	return netsim.Ring(sites, link)
}

// NewStar builds a star topology around a hub site.
func NewStar(sites int, hub SiteID, link Duration) (*Topology, error) {
	return netsim.Star(sites, hub, link)
}

// NewCustomTopology builds a topology from an explicit one-way delay
// matrix.
func NewCustomTopology(delay [][]Duration) (*Topology, error) {
	return netsim.Custom(delay)
}

// PlacementPolicy enumerates the data placement and replication
// policies of internal/place; parse names with ParsePlacementPolicy.
type PlacementPolicy = place.Policy

// The placement policies.
const (
	// PlacementFull replicates every object at every site (the paper's
	// layout; pairs with the local approach).
	PlacementFull = place.Full
	// PlacementShard assigns each object one primary holding its only
	// copy and its lock.
	PlacementShard = place.Sharded
	// PlacementQuorum adds K-replica quorum replication over the shard
	// layout.
	PlacementQuorum = place.Quorum
	// PlacementPrimaryOnly is the uncoordinated primary-only baseline.
	PlacementPrimaryOnly = place.PrimaryOnly
)

// ParsePlacementPolicy resolves a policy name ("full", "shard",
// "quorum", "primary").
func ParsePlacementPolicy(name string) (PlacementPolicy, error) { return place.ParsePolicy(name) }

// SingleSiteParams re-exports the Figures 2–3 experiment configuration.
type SingleSiteParams = experiments.SingleSiteParams

// DistParams re-exports the Figures 4–6 experiment configuration.
type DistParams = experiments.DistParams

// DefaultSingleSiteParams returns the calibrated single-site experiment
// configuration.
func DefaultSingleSiteParams() SingleSiteParams { return experiments.DefaultSingleSite() }

// DefaultDistParams returns the calibrated distributed experiment
// configuration.
func DefaultDistParams() DistParams { return experiments.DefaultDistributed() }

// SiteSweepParams re-exports the placement site-count sweep
// configuration.
type SiteSweepParams = experiments.SiteSweepParams

// DefaultSiteSweepParams returns the calibrated site-sweep
// configuration: sites {1,2,4,8,16} × all four placement policies at a
// locality-skewed 50/50 mix.
func DefaultSiteSweepParams() SiteSweepParams { return experiments.DefaultSiteSweep() }

// RunSiteSweep sweeps every placement policy across the site-count axis
// and reports committed throughput, deadline misses, and each
// coordinated policy's consistency tax (latency and throughput ratios)
// against the primary-only baseline.
func RunSiteSweep(p SiteSweepParams) (thpt, missed, tax Figure, err error) {
	figs, err := reproduce(experiments.Params{SiteSweep: p}, "sites-throughput", "sites-missed", "consistency-tax")
	if err != nil {
		return Figure{}, Figure{}, Figure{}, err
	}
	return figs[0], figs[1], figs[2], nil
}

// reproduce evaluates the named rows of the experiment table in one
// sweep, so figures that plot the same cells share their runs.
func reproduce(p experiments.Params, names ...string) ([]Figure, error) {
	sw := experiments.NewSweep(p)
	figs := make([]Figure, len(names))
	for i, name := range names {
		var err error
		if figs[i], err = sw.Figure(name); err != nil {
			return nil, err
		}
	}
	return figs, nil
}

// ReproduceFig2 regenerates the paper's Figure 2 (single-site normalized
// throughput vs transaction size).
func ReproduceFig2(p SingleSiteParams) (Figure, error) {
	return experiments.Run("fig2", experiments.Params{Single: p})
}

// ReproduceFig3 regenerates Figure 3 (single-site % deadline-missing vs
// transaction size).
func ReproduceFig3(p SingleSiteParams) (Figure, error) {
	return experiments.Run("fig3", experiments.Params{Single: p})
}

// ReproduceFig4 regenerates Figure 4 (local/global throughput ratio vs
// transaction mix).
func ReproduceFig4(p DistParams) (Figure, error) {
	return experiments.Run("fig4", experiments.Params{Dist: p})
}

// ReproduceFig5 regenerates Figure 5 (global/local deadline-missing
// ratio vs communication delay).
func ReproduceFig5(p DistParams) (Figure, error) {
	return experiments.Run("fig5", experiments.Params{Dist: p})
}

// ReproduceFig6 regenerates Figure 6 (distributed % deadline-missing vs
// transaction mix at two delays).
func ReproduceFig6(p DistParams) (Figure, error) {
	return experiments.Run("fig6", experiments.Params{Dist: p})
}

// ReproduceAll regenerates the paper set of the experiment table:
// Figures 2–6 and the three experiments the paper describes without
// plotting (database size, lock semantics, basic inheritance). The
// rtdbsim command's `-experiment all` covers the further ablations.
func ReproduceAll(sp SingleSiteParams, dp DistParams) ([]Figure, error) {
	return reproduce(experiments.Params{Single: sp, Dist: dp}, experiments.Names(experiments.InPaper)...)
}

// Schedule-space exploration re-exports: the systematic concurrency
// testing engine of internal/explore, surfaced so library callers can
// explore their own configurations without reaching into internals.
type (
	// ExploreStrategy selects how the schedule space is walked.
	ExploreStrategy = explore.Strategy
	// ExploreOptions bounds one exploration (budgets, workers, seed).
	ExploreOptions = explore.Options
	// ExploreReport summarizes one exploration: coverage counters and
	// any counterexamples.
	ExploreReport = explore.Report
	// ExploreCounterexample is one violating schedule, minimized when
	// shrinking was enabled.
	ExploreCounterexample = explore.Counterexample
	// ExploreTarget is a replayable simulation under exploration.
	ExploreTarget = explore.Target
)

// Exploration strategies.
const (
	// ExploreDFS walks deviations from the canonical schedule
	// depth-first, deepest decision first.
	ExploreDFS = explore.DFS
	// ExploreRandom runs seeded random walks plus the canonical
	// schedule.
	ExploreRandom = explore.Random
)

// ExploreConfig selects what to explore: one single-site protocol, or
// one distributed architecture when Distributed is set.
type ExploreConfig struct {
	// Protocol is the single-site protocol to explore (default
	// Ceiling). Ignored when Distributed is set.
	Protocol Protocol
	// Distributed explores a three-site cluster instead of a
	// single-site system; Global selects the global-ceiling-manager
	// architecture (false = local ceilings over full replication).
	Distributed bool
	Global      bool
	// Faults promotes fault injection into the explored decision tree
	// (implies Distributed): site crashes, per-message drop/duplicate
	// fates, and partition cuts become choice points searched alongside
	// the scheduling decisions, runs execute under the full
	// crash-recovery machinery, and journals are audited with the
	// recovery-correctness family. Counterexamples carry the exact
	// failure schedule as an exportable, replayable fault plan.
	Faults bool
	// Placement explores a placed mode ("shard", "quorum", or
	// "primary") instead of the paper's two architectures;
	// requires Faults and Global=false. Empty keeps the approach
	// selected by Global.
	Placement string
	// Seed drives the workload stream (default 1).
	Seed int64
	// Options bounds the exploration (explore defaults when zero).
	Options ExploreOptions
}

// Explore runs the schedule-space exploration engine against one
// protocol configuration and returns its report. Counterexamples on an
// unmodified tree indicate protocol bugs; the report carries the
// minimized decision schedules for replay.
func Explore(cfg ExploreConfig) (*ExploreReport, error) {
	var tgt ExploreTarget
	var err error
	if cfg.Placement != "" && !cfg.Faults {
		return nil, fmt.Errorf("rtlock: exploring placement %s requires Faults", cfg.Placement)
	}
	if cfg.Faults {
		var pol place.Policy
		if cfg.Placement != "" {
			if pol, err = place.ParsePolicy(cfg.Placement); err != nil {
				return nil, err
			}
		}
		tgt, err = explore.FaultTarget(explore.FaultOpts{Global: cfg.Global, Placement: pol, Seed: cfg.Seed})
	} else if cfg.Distributed {
		tgt, err = explore.DistributedTarget(explore.FaultOpts{Global: cfg.Global, Seed: cfg.Seed})
	} else {
		if cfg.Protocol == "" {
			cfg.Protocol = Ceiling
		}
		tgt, err = experiments.ExploreTarget(cfg.Protocol, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	return explore.Run(tgt, cfg.Options)
}

// ExploreSweepParams re-exports the exploration sweep configuration.
type ExploreSweepParams = experiments.ExploreParams

// DefaultExploreSweepParams returns the calibrated exploration sweep
// configuration.
func DefaultExploreSweepParams() ExploreSweepParams { return experiments.DefaultExplore() }

// RunExploreSweep explores every protocol at a range of schedule
// budgets and reports coverage; any invariant violation fails the
// sweep.
func RunExploreSweep(p ExploreSweepParams) (Figure, error) { return experiments.ExploreSweep(p) }
