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

	"rtlock/internal/audit"
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
	"rtlock/internal/timeline"
	"rtlock/internal/txn"
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

// WorkloadConfig describes the generated transaction load, following the
// paper's model: exponential interarrival, uniform object selection,
// deadlines proportional to size, earliest-deadline-highest priorities.
type WorkloadConfig struct {
	// Seed drives the deterministic random stream (default 1).
	Seed int64
	// Count is the number of transactions (default 500).
	Count int
	// MeanInterarrival is the mean arrival spacing (default 450ms
	// single-site, 30ms distributed — the calibrated heavy loads).
	MeanInterarrival Duration
	// MeanSize is the mean number of objects accessed (default 10
	// single-site, 6 distributed).
	MeanSize int
	// ReadOnlyFrac is the fraction of read-only transactions
	// (default 0).
	ReadOnlyFrac float64
	// SlackMin and SlackMax bound the uniform deadline slack factor
	// (defaults 4 and 8).
	SlackMin, SlackMax float64
	// PeriodicFrac generates that fraction of update transactions as
	// periodic task instances (default 0).
	PeriodicFrac float64
	// Period is the period of periodic streams (default
	// 10×MeanInterarrival).
	Period Duration
	// ImplicitDeadlines gives periodic instances the start of the next
	// period as their deadline.
	ImplicitDeadlines bool
	// BurstFactor, when > 1, makes the arrival process bursty: a
	// deterministic square wave alternates BurstOn at BurstFactor times
	// the base rate with BurstOff at the base rate. Zero or one leaves
	// the load unchanged.
	BurstFactor float64
	// BurstOn and BurstOff are the burst and quiet phase widths; both
	// must be positive when BurstFactor > 1.
	BurstOn, BurstOff Duration
	// LocalityProb, for distributed runs with a sharded, quorum, or
	// primary-only placement, biases object selection toward the
	// transaction's home shard: each access is drawn Zipf-skewed from
	// the home site's primaries with this probability, uniformly from
	// the whole database otherwise. Zero keeps uniform global
	// selection; requires Placement to be set.
	LocalityProb float64
	// Transactions, when non-nil, bypasses generation entirely and
	// runs exactly these transactions.
	Transactions []*Txn
}

// SingleSiteConfig configures a single-site run (the setting of the
// paper's Figures 2–3).
type SingleSiteConfig struct {
	// Protocol under test (default Ceiling).
	Protocol Protocol
	// DBSize is the number of data objects (default 200).
	DBSize int
	// CPUPerObj is the CPU demand per object accessed (default 10ms).
	CPUPerObj Duration
	// IOPerObj is the I/O delay per object accessed, served in
	// parallel (default 20ms).
	IOPerObj Duration
	// MemoryResident forces IOPerObj to zero, modeling the
	// memory-resident database of the distributed experiments.
	MemoryResident bool
	// Workload describes the load.
	Workload WorkloadConfig
	// RecordHistory reports in Result.Serializable whether the
	// committed history was conflict serializable.
	RecordHistory bool
	// TraceEvents, when positive, keeps up to that many
	// transaction-level journal records (arrivals, lock requests,
	// blocks and grants with blocked intervals, operations, restarts,
	// commits, misses) in Result.Trace.
	TraceEvents int
	// BufferPages sizes the LRU object buffer; accesses that hit skip
	// the I/O delay. Zero disables buffering.
	BufferPages int
	// IODisks bounds I/O parallelism (misses queue FIFO for a disk).
	// Zero keeps the paper's unbounded parallel-I/O assumption.
	IODisks int
	// WAL enables the redo-only write-ahead log: commits force a log
	// record before their writes become visible, and Result.Recovery
	// reports the restart cost.
	WAL bool
	// CheckpointEvery spaces WAL checkpoints (zero disables the
	// checkpointer).
	CheckpointEvery Duration
	// Journal keeps every kernel-level event in Result.Journal;
	// byte-identical journals across runs prove determinism.
	Journal bool
	// Audit checks the protocol's invariants as the run goes: the
	// auditors observe each journal record as it is written, and
	// violations land in Result.Violations. Audit alone keeps no
	// records (Result.Journal stays nil); set Journal to keep them.
	Audit bool
	// Metrics fills a deterministic metrics registry into
	// Result.Metrics, snapshots it into every window row of
	// Result.Timeline, and profiles lock contention into
	// Result.LockProfile as the run goes. Like Audit it keeps no
	// records; set Journal to keep them. Identical (seed, config) runs
	// export byte-identical metrics.
	Metrics bool
	// MetricsInterval is the window width of a Metrics run that sets no
	// TimelineWindow (zero picks 100ms).
	MetricsInterval Duration
	// TimelineWindow, when positive, rolls the run into virtual-time
	// windows of this width and fills Result.Timeline: per-window
	// throughput, miss %, response quantiles, lock-wait quantiles, and
	// the in-flight gauge. A run has one window width: TimelineWindow
	// if set, else MetricsInterval, else 100ms when Metrics is set.
	// Without Metrics the rows carry no registry snapshot and the run
	// observes no journal, so million-transaction runs stay
	// bounded-memory.
	TimelineWindow Duration
	// TimelineMaxWindows bounds the retained window rows (ring of the
	// newest; zero picks a 4096-window default).
	TimelineMaxWindows int
	// MaxRawRecords caps per-transaction record retention: only the
	// newest MaxRawRecords land in Result.Records, while Summary and the
	// streaming quantiles stay exact. Zero keeps every record.
	MaxRawRecords int
}

// DistributedConfig configures a distributed run (the setting of
// Figures 4–6).
type DistributedConfig struct {
	// Global selects the global-ceiling-manager architecture; false
	// (the default) selects local ceilings with full replication.
	// Mutually exclusive with the non-full Placement policies.
	Global bool
	// Placement selects a point on the data placement and replication
	// spectrum (internal/place): "" or "full" keeps the paper's fully
	// replicated layout under the approach selected by Global; "shard"
	// runs primary-copy sharding (locks and data at each object's
	// primary, 2PC for cross-shard writers); "quorum" adds K-replica
	// quorum replication with R/W rounds; "primary" is the
	// uncoordinated primary-only baseline — no distributed locking, no
	// 2PC, serializability waived and journaled as such. Comparing a
	// coordinated mode against "primary" yields its consistency tax.
	Placement string
	// HashShards selects hash partitioning for the primary mapping of
	// sharded, quorum, and primary-only placements (default: contiguous
	// range partitioning).
	HashShards bool
	// Replicas is the replica-set size K for the quorum placement
	// (default min(3, Sites)).
	Replicas int
	// ReadQuorum and WriteQuorum are the quorum sizes R and W over the
	// K replicas; defaults are a read majority (K/2+1) and the smallest
	// intersecting write quorum (K-R+1). R+W must exceed K.
	ReadQuorum, WriteQuorum int
	// Sites is the number of fully interconnected sites (default 3).
	Sites int
	// DBSize is the number of data objects (default 200).
	DBSize int
	// CommDelay is the one-way inter-site delay over a uniform full
	// mesh (default 20ms). Ignored when Topology is set.
	CommDelay Duration
	// Topology, when non-nil, supplies per-pair delays; build one with
	// NewFullMesh, NewRing, NewStar, or NewCustomTopology.
	Topology *Topology
	// GCMSite places the global ceiling manager (global mode only).
	GCMSite SiteID
	// CPUPerObj is the CPU demand per object (default 10ms); the
	// distributed database is memory-resident.
	CPUPerObj Duration
	// ApplyPerObj is the replica-installation CPU per object for the
	// local approach (default CPUPerObj/2).
	ApplyPerObj Duration
	// Multiversion gives read-only transactions in the local approach
	// temporally consistent snapshot reads (the paper's §4 closing
	// multi-version idea) instead of latest-copy reads.
	Multiversion bool
	// Failures schedules sites to become unreachable: messages toward
	// a down site are dropped and synchronous requests time out (the
	// paper's message-server time-out mechanism).
	Failures []SiteFailure
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan: sites crash (losing volatile state) and recover, links
	// drop/duplicate/delay messages, partitions cut the mesh. Attaching
	// a plan also arms the crash-recovery machinery — write-ahead-
	// logged 2PC votes with redo, presumed-abort coordination with
	// bounded retries, and (global approach) failover to per-site local
	// ceiling managers while the GCM site is down. An empty plan arms
	// the machinery but injects nothing; the journal stays byte-
	// identical to a run without it.
	Faults *FaultPlan
	// FaultSeed seeds the fault injector's random stream (defaults to
	// the workload seed).
	FaultSeed int64
	// SiteSpeed optionally scales each site's processor speed; empty
	// means uniform speed 1.
	SiteSpeed []float64
	// SnapshotLag is the snapshot age for multiversion reads (zero
	// uses a default covering typical propagation).
	SnapshotLag Duration
	// Workload describes the load. Updates are homed at their write
	// set's primary site, read-only transactions at random sites.
	Workload WorkloadConfig
	// RecordHistory reports in Result.Serializable whether the whole
	// system's committed history, every site's operations in one
	// history, was conflict serializable. The local approach's stale
	// replica reads and the uncoordinated primary placement waive that,
	// so both can report false.
	RecordHistory bool
	// Journal keeps every kernel-level event in Result.Journal.
	Journal bool
	// Audit checks the architecture's invariants as the run goes (see
	// SingleSiteConfig.Audit); Audit alone keeps no records.
	Audit bool
	// Metrics fills a deterministic metrics registry into
	// Result.Metrics, snapshots it into every window row, and profiles
	// lock contention into Result.LockProfile as the run goes (see
	// SingleSiteConfig.Metrics); Metrics alone keeps no records.
	Metrics bool
	// MetricsInterval is the window width of a Metrics run that sets no
	// TimelineWindow (zero picks 100ms).
	MetricsInterval Duration
	// TimelineWindow, when positive, rolls the run into virtual-time
	// windows of this width and fills Result.Timeline (see
	// SingleSiteConfig.TimelineWindow, which gives the precedence of the
	// window widths).
	TimelineWindow Duration
	// TimelineMaxWindows bounds the retained window rows (zero picks a
	// 4096-window default).
	TimelineMaxWindows int
	// MaxRawRecords caps per-transaction record retention (see
	// SingleSiteConfig.MaxRawRecords).
	MaxRawRecords int
}

// RecoveryInfo summarizes the write-ahead log after a WAL-enabled run.
type RecoveryInfo struct {
	// Records is the total number of commit records forced.
	Records int
	// Checkpoints is the number of checkpoints taken.
	Checkpoints int
	// RedoTail is the number of records a restart would replay.
	RedoTail int
	// EstimatedRestart is the modeled restart duration (snapshot load
	// plus redo replay).
	EstimatedRestart Duration
}

// SiteFailure makes a site unreachable from At until RecoverAt (no
// recovery when RecoverAt is not after At).
type SiteFailure struct {
	Site      SiteID
	At        Time
	RecoverAt Time
}

// Result is the outcome of a run.
type Result struct {
	// Summary aggregates throughput and deadline misses.
	Summary Summary
	// Records lists every processed transaction.
	Records []TxRecord
	// Serializable reports whether the whole system's committed
	// history, judged from the journal's operation records, was
	// conflict serializable; it is nil unless RecordHistory was set.
	// Distributed local and primary runs can report false.
	Serializable *bool
	// Replication holds replica statistics for distributed local-
	// ceiling runs, nil otherwise.
	Replication *ReplicationStats
	// Trace holds the event log when tracing was requested.
	Trace *Trace
	// Recovery summarizes the write-ahead log at the end of a WAL run,
	// nil otherwise.
	Recovery *RecoveryInfo
	// Messages is the total inter-site message count (distributed
	// runs).
	Messages int
	// Net breaks the message traffic down by outcome (distributed
	// runs), attributing every loss to its cause; nil for single-site
	// runs.
	Net *NetReport
	// Journal is the deterministic replay journal, nil unless the
	// Journal flag was set: Audit and Metrics observe the records as
	// the run goes, Journal keeps them.
	Journal *Journal
	// Violations lists invariant violations found by the auditors; it
	// is non-nil (possibly empty) exactly when Audit was set.
	Violations []Violation
	// Metrics is the registry's final state, nil unless the Metrics
	// flag was set; its time series is the Series of the Timeline rows.
	Metrics *MetricsRegistry
	// LockProfile is the lock-contention profile the run's journal
	// records built as they were written, nil unless the Metrics flag
	// was set.
	LockProfile *LockProfile
	// Timeline holds the retained window rows of a TimelineWindow or
	// Metrics run, oldest first; nil otherwise. Export with
	// TimelineJSONL, TimelineCSV, MetricsCSV, or HTMLReport.
	Timeline []TimelineRow
	// TimelineDropped reports how many early windows the ring evicted
	// (0 unless the run outlived TimelineMaxWindows windows).
	TimelineDropped int
	// RawRetained and RawDropped report per-transaction record
	// retention under a MaxRawRecords cap: Records holds RawRetained
	// entries and RawDropped older ones were discarded (0 uncapped).
	RawRetained, RawDropped int
}

func (w *WorkloadConfig) fill(singleSite bool) {
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.Count == 0 {
		w.Count = 500
	}
	if w.MeanInterarrival == 0 {
		if singleSite {
			w.MeanInterarrival = 450 * Millisecond
		} else {
			w.MeanInterarrival = 30 * Millisecond
		}
	}
	if w.MeanSize == 0 {
		if singleSite {
			w.MeanSize = 10
		} else {
			w.MeanSize = 6
		}
	}
	if w.SlackMin == 0 {
		w.SlackMin = 4
	}
	if w.SlackMax == 0 {
		w.SlackMax = 8
	}
}

// RunSingleSite executes one single-site simulation.
func RunSingleSite(cfg SingleSiteConfig) (*Result, error) {
	if cfg.Protocol == "" {
		cfg.Protocol = Ceiling
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 200
	}
	if cfg.CPUPerObj == 0 {
		cfg.CPUPerObj = 10 * Millisecond
	}
	if cfg.IOPerObj == 0 {
		cfg.IOPerObj = 20 * Millisecond
	}
	if cfg.MemoryResident {
		cfg.IOPerObj = 0
	}
	cfg.Workload.fill(true)
	if cfg.Workload.LocalityProb > 0 {
		return nil, fmt.Errorf("rtlock: LocalityProb requires a distributed sharded, quorum, or primary-only placement")
	}

	newMgr, disc, err := experiments.ManagerFor(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	// Single-site loads stream: arrivals are scheduled one event at a
	// time so a million-transaction run never materializes the whole
	// load. LoadStream journals identically to Load, so golden journals
	// are unaffected.
	var stream *workload.Stream
	if cfg.Workload.Transactions == nil {
		cat, err := db.NewCatalog(1, cfg.DBSize)
		if err != nil {
			return nil, err
		}
		p := generatorParams(cfg.Workload, cat, cfg.CPUPerObj+cfg.IOPerObj, false)
		if stream, err = workload.NewStream(p); err != nil {
			return nil, err
		}
	}
	var auds []Auditor
	if cfg.Audit {
		if auds, err = AuditorsForProtocol(cfg.Protocol); err != nil {
			return nil, err
		}
	}
	rec := &recording{
		journal: cfg.Journal, audit: cfg.Audit, auds: auds, metrics: cfg.Metrics, history: cfg.RecordHistory,
		traceEvents: cfg.TraceEvents, window: cfg.TimelineWindow, interval: cfg.MetricsInterval,
		maxWindows: cfg.TimelineMaxWindows,
	}
	rec.start(cfg.Workload.Seed, func() string {
		return fmt.Sprintf("single/%s/db=%d/cpu=%d/io=%d/count=%d/size=%d/ro=%g",
			cfg.Protocol, cfg.DBSize, int64(cfg.CPUPerObj), int64(cfg.IOPerObj),
			cfg.Workload.Count, cfg.Workload.MeanSize, cfg.Workload.ReadOnlyFrac)
	})
	sys, err := txn.NewSystem(txn.Config{
		CPUPerObj:       cfg.CPUPerObj,
		IOPerObj:        cfg.IOPerObj,
		CPUDiscipline:   disc,
		NewManager:      newMgr,
		BufferPages:     cfg.BufferPages,
		IODisks:         cfg.IODisks,
		WAL:             cfg.WAL,
		CheckpointEvery: cfg.CheckpointEvery,
		Journal:         rec.jrn,
		Timeline:        rec.tl,
		MaxRawRecords:   cfg.MaxRawRecords,
	})
	if err != nil {
		return nil, err
	}
	if stream != nil {
		sys.LoadStream(stream)
	} else {
		sys.Load(cfg.Workload.Transactions)
	}
	sum := sys.Run()
	res := &Result{Summary: sum, Records: sys.Monitor.Records(),
		RawRetained: sys.Monitor.RawRetained(), RawDropped: sys.Monitor.RawDropped()}
	rec.finish(res)
	if sys.Log != nil {
		res.Recovery = &RecoveryInfo{
			Records:          sys.Log.Records(),
			Checkpoints:      sys.Log.Checkpoints(),
			RedoTail:         sys.Log.RedoLength(),
			EstimatedRestart: sys.Log.RecoveryTime(Millisecond/10, Millisecond),
		}
	}
	return res, nil
}

// RunDistributed executes one distributed simulation.
func RunDistributed(cfg DistributedConfig) (*Result, error) {
	if cfg.Sites == 0 {
		cfg.Sites = 3
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 200
	}
	if cfg.CPUPerObj == 0 {
		cfg.CPUPerObj = 10 * Millisecond
	}
	if cfg.CommDelay == 0 {
		cfg.CommDelay = 20 * Millisecond
	}
	cfg.Workload.fill(false)

	var pol place.Policy
	if cfg.Placement != "" {
		var err error
		if pol, err = place.ParsePolicy(cfg.Placement); err != nil {
			return nil, err
		}
	}
	mode, err := dist.ModeFor(cfg.Global, pol)
	if err != nil {
		return nil, err
	}
	if cfg.Workload.LocalityProb > 0 && mode.LocalWriteSets() {
		return nil, fmt.Errorf("rtlock: LocalityProb requires a sharded, quorum, or primary-only placement")
	}
	var auds []Auditor
	if cfg.Audit {
		auds = audit.ForPlacement(mode.String())
		if !cfg.Faults.Empty() {
			auds = audit.ForFaults(mode.String())
		}
	}
	rec := &recording{
		journal: cfg.Journal, audit: cfg.Audit, auds: auds, metrics: cfg.Metrics, history: cfg.RecordHistory,
		window: cfg.TimelineWindow, interval: cfg.MetricsInterval, maxWindows: cfg.TimelineMaxWindows,
	}
	rec.start(cfg.Workload.Seed, func() string {
		key := fmt.Sprintf(
			"dist/%s/sites=%d/db=%d/delay=%d/count=%d/size=%d/ro=%g/mv=%t",
			mode, cfg.Sites, cfg.DBSize, int64(cfg.CommDelay),
			cfg.Workload.Count, cfg.Workload.MeanSize, cfg.Workload.ReadOnlyFrac,
			cfg.Multiversion)
		if !mode.LocalWriteSets() {
			// The placement parameters are part of the run identity; the
			// paper's two architectures keep the historical key so their
			// golden journals stay byte-identical.
			key += fmt.Sprintf("/place=%s", mode)
			if cfg.HashShards {
				key += "/hash"
			}
			if mode == dist.Quorum {
				key += fmt.Sprintf("/k=%d/r=%d/w=%d", cfg.Replicas, cfg.ReadQuorum, cfg.WriteQuorum)
			}
			if cfg.Workload.LocalityProb > 0 {
				key += fmt.Sprintf("/loc=%g", cfg.Workload.LocalityProb)
			}
		}
		if !cfg.Faults.Empty() {
			// An empty plan keeps the fault-free config key so its
			// journal stays byte-identical to a run without one.
			key += "/" + cfg.Faults.String()
		}
		return key
	})
	cluster, err := dist.NewCluster(dist.Config{
		Mode:          mode,
		HashShards:    cfg.HashShards,
		Replicas:      cfg.Replicas,
		ReadQuorum:    cfg.ReadQuorum,
		WriteQuorum:   cfg.WriteQuorum,
		Sites:         cfg.Sites,
		Objects:       cfg.DBSize,
		CommDelay:     cfg.CommDelay,
		Topology:      cfg.Topology,
		GCMSite:       cfg.GCMSite,
		CPUPerObj:     cfg.CPUPerObj,
		ApplyPerObj:   cfg.ApplyPerObj,
		Multiversion:  cfg.Multiversion,
		SnapshotLag:   cfg.SnapshotLag,
		SiteSpeed:     cfg.SiteSpeed,
		Journal:       rec.jrn,
		Timeline:      rec.tl,
		MaxRawRecords: cfg.MaxRawRecords,
	})
	if err != nil {
		return nil, err
	}
	// Generated loads stream, as on a single site.
	var stream *workload.Stream
	if cfg.Workload.Transactions == nil {
		stream, err = workload.NewStream(generatorParams(cfg.Workload, cluster.Catalog, cfg.CPUPerObj, mode.LocalWriteSets()))
		if err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Workload.Seed
		}
		if err := cluster.AttachFaults(cfg.Faults, seed); err != nil {
			return nil, err
		}
	}
	for _, f := range cfg.Failures {
		cluster.FailSite(f.Site, f.At, f.RecoverAt)
	}
	if stream != nil {
		cluster.LoadStream(stream)
	} else {
		cluster.Load(cfg.Workload.Transactions)
	}
	sum := cluster.Run()
	net := cluster.NetReport()
	res := &Result{
		Summary:     sum,
		Records:     cluster.Monitor.Records(),
		Messages:    cluster.Net.Sent,
		Net:         &net,
		RawRetained: cluster.Monitor.RawRetained(),
		RawDropped:  cluster.Monitor.RawDropped(),
	}
	rec.finish(res)
	if mode == dist.Local {
		repl := cluster.Replication()
		res.Replication = &repl
	}
	return res, nil
}

// recording is what one run records beside its monitor: the journal
// and its observers (the auditors, the serializability verdict behind
// RecordHistory, the trace behind TraceEvents, the lock-contention
// profiler behind Metrics), the metrics registry and the window ring.
// The caller sets the knobs both run configs share, and the auditors of
// an audited run; start builds the rest.
type recording struct {
	journal, audit, metrics, history bool
	auds                             []Auditor
	traceEvents                      int
	window, interval                 Duration
	maxWindows                       int

	jrn    *journal.Journal
	serial *audit.Serializable
	trace  *stats.Trace
	prof   *metrics.Profiler
	reg    *metrics.Registry
	tl     *timeline.Collector
}

// start builds the run's journal, keyed by seed and the config string
// key renders, and tees every requested observer onto it. A run that
// keeps no records but has observers gets a discarding journal; a run
// with neither gets none. The window ring takes the run's one window
// width (see SingleSiteConfig.TimelineWindow). With the Metrics flag
// the registry is user-visible and snapshotted into every row; a
// timeline without Metrics reads its own probe registry, which is never
// snapshotted and never reaches the Result.
func (r *recording) start(seed int64, key func() string) {
	var obs []journal.Observer
	for _, a := range r.auds {
		obs = append(obs, a)
	}
	if r.history {
		r.serial = audit.NewSerializable(false)
		obs = append(obs, r.serial)
	}
	if r.traceEvents > 0 {
		r.trace = stats.NewTrace(r.traceEvents)
		obs = append(obs, r.trace)
	}
	if r.metrics {
		r.prof = metrics.NewProfiler()
		obs = append(obs, r.prof)
		r.reg = metrics.New()
	}
	if r.journal || len(obs) > 0 {
		r.jrn = journal.New(seed, key())
		r.jrn.Tee(!r.journal, obs...)
	}
	window := r.window
	if window <= 0 && r.metrics {
		window = r.interval
		if window <= 0 {
			window = 100 * Millisecond
		}
	}
	r.tl = timeline.New(timeline.Config{Window: window, MaxWindows: r.maxWindows}, r.reg)
}

// finish closes the observers and fills what they recorded into res.
func (r *recording) finish(res *Result) {
	if r.journal {
		res.Journal = r.jrn
	}
	if r.metrics {
		res.Metrics = r.reg
		res.LockProfile = r.prof.Finish()
	}
	if r.tl != nil {
		res.Timeline = r.tl.Rows()
		res.TimelineDropped = r.tl.Dropped()
	}
	if r.audit {
		res.Violations = audit.Finish(r.auds...)
	}
	if r.serial != nil {
		ok := len(r.serial.Finish()) == 0
		res.Serializable = &ok
	}
	res.Trace = r.trace
}

// generatorParams maps the facade workload config onto generator
// parameters: the one mapping both entry points use, so a knob cannot
// reach one of them and silently miss the other.
func generatorParams(w WorkloadConfig, cat *db.Catalog, perObjCost Duration, localWriteSets bool) workload.Params {
	return workload.Params{
		Seed:              w.Seed,
		Catalog:           cat,
		Count:             w.Count,
		MeanInterarrival:  w.MeanInterarrival,
		MeanSize:          w.MeanSize,
		ReadOnlyFrac:      w.ReadOnlyFrac,
		PerObjCost:        perObjCost,
		SlackMin:          w.SlackMin,
		SlackMax:          w.SlackMax,
		LocalWriteSets:    localWriteSets,
		LocalityProb:      w.LocalityProb,
		PeriodicFrac:      w.PeriodicFrac,
		Period:            w.Period,
		ImplicitDeadlines: w.ImplicitDeadlines,
		BurstFactor:       w.BurstFactor,
		BurstOn:           w.BurstOn,
		BurstOff:          w.BurstOff,
	}
}

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
