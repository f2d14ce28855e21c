package experiments

// One run assembly. The facade's RunSingleSite and RunDistributed, every
// figure cell and the streaming soak build their engine here: catalog,
// load, journal and its observers, window ring, engine, Result. The
// public entry points fill the documented defaults and call the
// assembly, which fills none. A figure cell starts from the filled
// defaults and sets what it varies, so a zero it sets stays zero: a
// delay-0 cell keeps CommDelay 0 (from which the cluster derives its
// snapshot lag) and a run seed of 0 stays 0.

import (
	"fmt"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/dist"
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

// WorkloadConfig describes the generated transaction load, following the
// paper's model: exponential interarrival, uniform object selection,
// deadlines proportional to size, earliest-deadline-highest priorities.
type WorkloadConfig struct {
	// Seed drives the deterministic random stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Count is the number of transactions (default 500).
	Count int `json:"count,omitempty"`
	// MeanInterarrival is the mean arrival spacing (default 450ms
	// single-site, 30ms distributed — the calibrated heavy loads).
	MeanInterarrival sim.Duration `json:"meanInterarrivalMs,omitempty"`
	// MeanSize is the mean number of objects accessed (default 10
	// single-site, 6 distributed).
	MeanSize int `json:"meanSize,omitempty"`
	// ReadOnlyFrac is the fraction of read-only transactions
	// (default 0).
	ReadOnlyFrac float64 `json:"readOnlyFrac,omitempty"`
	// SlackMin and SlackMax bound the uniform deadline slack factor
	// (defaults 4 and 8).
	SlackMin float64 `json:"slackMin,omitempty"`
	SlackMax float64 `json:"slackMax,omitempty"`
	// PeriodicFrac generates that fraction of update transactions as
	// periodic task instances (default 0).
	PeriodicFrac float64 `json:"periodicFrac,omitempty"`
	// ImplicitDeadlines gives periodic instances the start of the next
	// period as their deadline.
	ImplicitDeadlines bool `json:"-"`
	// BurstFactor, when > 1, makes the arrival process bursty: a
	// deterministic square wave alternates BurstOn at BurstFactor times
	// the base rate with BurstOff at the base rate. Zero or one leaves
	// the load unchanged.
	BurstFactor float64 `json:"burstFactor,omitempty"`
	// BurstOn and BurstOff are the burst and quiet phase widths; both
	// must be positive when BurstFactor > 1.
	BurstOn  sim.Duration `json:"burstOnMs,omitempty"`
	BurstOff sim.Duration `json:"burstOffMs,omitempty"`
	// LocalityProb, for distributed runs with a sharded, quorum, or
	// primary-only placement, biases object selection toward the
	// transaction's home shard: each access is drawn Zipf-skewed from
	// the home site's primaries with this probability, uniformly from
	// the whole database otherwise. Zero keeps uniform global
	// selection; requires Placement to be set.
	LocalityProb float64 `json:"localityProb,omitempty"`
	// Transactions, when non-nil, bypasses generation entirely and
	// runs exactly these transactions.
	Transactions []*workload.Txn `json:"-"`

	// policy assigns priorities (zero is earliest deadline first) and
	// hotspot is the probability that an access lands in the first tenth
	// of the database: mechanisms only the figures vary.
	policy  workload.PriorityPolicy
	hotspot float64
}

// SingleSiteConfig configures a single-site run (the setting of the
// paper's Figures 2–3).
type SingleSiteConfig struct {
	// Protocol under test (default C, the ceiling protocol).
	Protocol Protocol `json:"protocol,omitempty"`
	// DBSize is the number of data objects (default 200).
	DBSize int `json:"dbSize,omitempty"`
	// CPUPerObj is the CPU demand per object accessed (default 10ms).
	CPUPerObj sim.Duration `json:"cpuPerObjMs,omitempty"`
	// IOPerObj is the I/O delay per object accessed, served in
	// parallel (default 20ms).
	IOPerObj sim.Duration `json:"ioPerObjMs,omitempty"`
	// MemoryResident forces IOPerObj to zero, modeling the
	// memory-resident database of the distributed experiments.
	MemoryResident bool `json:"memoryResident,omitempty"`
	// Workload describes the load.
	Workload WorkloadConfig `json:"workload"`
	// RecordHistory reports in Result.Serializable whether the
	// committed history was conflict serializable.
	RecordHistory bool `json:"recordHistory,omitempty"`
	// TraceEvents, when positive, keeps up to that many
	// transaction-level journal records (arrivals, lock requests,
	// blocks and grants with blocked intervals, operations, restarts,
	// commits, misses) in Result.Trace.
	TraceEvents int `json:"traceEvents,omitempty"`
	// BufferPages sizes the LRU object buffer; accesses that hit skip
	// the I/O delay. Zero disables buffering.
	BufferPages int `json:"bufferPages,omitempty"`
	// WAL enables the redo-only write-ahead log: commits force a log
	// record before their writes become visible, and Result.Recovery
	// reports the restart cost.
	WAL bool `json:"wal,omitempty"`
	// CheckpointEvery spaces WAL checkpoints (zero disables the
	// checkpointer).
	CheckpointEvery sim.Duration `json:"checkpointEveryMs,omitempty"`
	// Journal keeps every kernel-level event in Result.Journal;
	// byte-identical journals across runs prove determinism.
	Journal bool `json:"journal,omitempty"`
	// Audit checks the protocol's invariants as the run goes: the
	// auditors observe each journal record as it is written, and
	// violations land in Result.Violations. Audit alone keeps no
	// records (Result.Journal stays nil); set Journal to keep them.
	Audit bool `json:"audit,omitempty"`
	// Metrics fills a deterministic metrics registry into
	// Result.Metrics, snapshots it into every window row of
	// Result.Timeline, and profiles lock contention into
	// Result.LockProfile as the run goes. Like Audit it keeps no
	// records; set Journal to keep them. Identical (seed, config) runs
	// export byte-identical metrics.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsInterval is the window width of a Metrics run that sets no
	// TimelineWindow (zero picks 100ms).
	MetricsInterval sim.Duration `json:"metricsIntervalMs,omitempty"`
	// TimelineWindow, when positive, rolls the run into virtual-time
	// windows of this width and fills Result.Timeline: per-window
	// throughput, miss %, response quantiles, lock-wait quantiles, and
	// the in-flight gauge. A run has one window width: TimelineWindow
	// if set, else MetricsInterval, else 100ms when Metrics is set.
	// Without Metrics the rows carry no registry snapshot and the run
	// observes no journal, so million-transaction runs stay
	// bounded-memory.
	TimelineWindow sim.Duration `json:"timelineWindowMs,omitempty"`
	// TimelineMaxWindows bounds the retained window rows (ring of the
	// newest; zero picks a 4096-window default).
	TimelineMaxWindows int `json:"timelineMaxWindows,omitempty"`
	// MaxRawRecords caps per-transaction record retention: only the
	// newest MaxRawRecords land in Result.Records, while Summary and the
	// streaming quantiles stay exact. Zero keeps every record.
	MaxRawRecords int `json:"maxRawRecords,omitempty"`

	// lockOverhead is the CPU charged per lock operation, which only the
	// overhead figure varies.
	lockOverhead sim.Duration
}

// DistributedConfig configures a distributed run (the setting of
// Figures 4–6).
type DistributedConfig struct {
	// Global selects the global-ceiling-manager architecture; false
	// (the default) selects local ceilings with full replication.
	// Mutually exclusive with the non-full Placement policies.
	Global bool `json:"global,omitempty"`
	// Placement selects a point on the data placement and replication
	// spectrum (internal/place): "" or "full" keeps the paper's fully
	// replicated layout under the approach selected by Global; "shard"
	// runs primary-copy sharding (locks and data at each object's
	// primary, 2PC for cross-shard writers); "quorum" adds K-replica
	// quorum replication with R/W rounds; "primary" is the
	// uncoordinated primary-only baseline — no distributed locking, no
	// 2PC, serializability waived and journaled as such. Comparing a
	// coordinated mode against "primary" yields its consistency tax.
	Placement string `json:"placement,omitempty"`
	// Replicas is the replica-set size K for the quorum placement
	// (default min(3, Sites)).
	Replicas int `json:"replicas,omitempty"`
	// ReadQuorum and WriteQuorum are the quorum sizes R and W over the
	// K replicas; defaults are a read majority (K/2+1) and the smallest
	// intersecting write quorum (K-R+1). R+W must exceed K.
	ReadQuorum  int `json:"readQuorum,omitempty"`
	WriteQuorum int `json:"writeQuorum,omitempty"`
	// Sites is the number of fully interconnected sites (default 3).
	Sites int `json:"sites,omitempty"`
	// DBSize is the number of data objects (default 200).
	DBSize int `json:"dbSize,omitempty"`
	// CommDelay is the one-way inter-site delay over a uniform full
	// mesh (default 20ms). Ignored when Topology is set.
	CommDelay sim.Duration `json:"commDelayMs,omitempty"`
	// Topology, when non-nil, supplies per-pair delays; build one with
	// the facade's NewFullMesh, NewRing, NewStar, or NewCustomTopology.
	Topology *netsim.Topology `json:"-"`
	// GCMSite places the global ceiling manager (global mode only).
	GCMSite db.SiteID `json:"-"`
	// CPUPerObj is the CPU demand per object (default 10ms); the
	// distributed database is memory-resident.
	CPUPerObj sim.Duration `json:"cpuPerObjMs,omitempty"`
	// Multiversion gives read-only transactions in the local approach
	// temporally consistent snapshot reads (the paper's §4 closing
	// multi-version idea) instead of latest-copy reads.
	Multiversion bool `json:"multiversion,omitempty"`
	// Failures schedules sites to become unreachable: messages toward
	// a down site are dropped and synchronous requests time out (the
	// paper's message-server time-out mechanism).
	Failures []SiteFailure `json:"failures"`
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan: sites crash (losing volatile state) and recover, links
	// drop/duplicate/delay messages, partitions cut the mesh. Attaching
	// a plan also arms the crash-recovery machinery — write-ahead-
	// logged 2PC votes with redo, presumed-abort coordination with
	// bounded retries, and (global approach) failover to per-site local
	// ceiling managers while the GCM site is down. An empty plan arms
	// the machinery but injects nothing; the journal stays byte-
	// identical to a run without it. In a spec the plan is in its own
	// format (faults.Parse): times in 1µs ticks, not milliseconds.
	Faults *faults.Plan `json:"faults,omitempty"`
	// FaultSeed seeds the fault injector's random stream (defaults to
	// the workload seed).
	FaultSeed int64 `json:"-"`
	// Workload describes the load. Updates are homed at their write
	// set's primary site, read-only transactions at random sites.
	Workload WorkloadConfig `json:"workload"`
	// RecordHistory reports in Result.Serializable whether the whole
	// system's committed history, every site's operations in one
	// history, was conflict serializable. The local approach's stale
	// replica reads and the uncoordinated primary placement waive that,
	// so both can report false.
	RecordHistory bool `json:"recordHistory,omitempty"`
	// Journal keeps every kernel-level event in Result.Journal.
	Journal bool `json:"journal,omitempty"`
	// Audit checks the architecture's invariants as the run goes (see
	// SingleSiteConfig.Audit); Audit alone keeps no records.
	Audit bool `json:"audit,omitempty"`
	// Metrics fills a deterministic metrics registry into
	// Result.Metrics, snapshots it into every window row, and profiles
	// lock contention into Result.LockProfile as the run goes (see
	// SingleSiteConfig.Metrics); Metrics alone keeps no records.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsInterval is the window width of a Metrics run that sets no
	// TimelineWindow (zero picks 100ms).
	MetricsInterval sim.Duration `json:"metricsIntervalMs,omitempty"`
	// TimelineWindow, when positive, rolls the run into virtual-time
	// windows of this width and fills Result.Timeline (see
	// SingleSiteConfig.TimelineWindow, which gives the precedence of the
	// window widths).
	TimelineWindow sim.Duration `json:"timelineWindowMs,omitempty"`
	// TimelineMaxWindows bounds the retained window rows (zero picks a
	// 4096-window default).
	TimelineMaxWindows int `json:"timelineMaxWindows,omitempty"`
	// MaxRawRecords caps per-transaction record retention (see
	// SingleSiteConfig.MaxRawRecords).
	MaxRawRecords int `json:"maxRawRecords,omitempty"`
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
	EstimatedRestart sim.Duration
}

// SiteFailure makes a site unreachable from At until RecoverAt (no
// recovery when RecoverAt is not after At).
type SiteFailure struct {
	Site      db.SiteID `json:"site"`
	At        sim.Time  `json:"atMs"`
	RecoverAt sim.Time  `json:"recoverAtMs,omitempty"`
}

// Result is the outcome of a run.
type Result struct {
	// Summary aggregates throughput and deadline misses.
	Summary stats.Summary
	// Records lists every processed transaction.
	Records []stats.TxRecord
	// Serializable reports whether the whole system's committed
	// history, judged from the journal's operation records, was
	// conflict serializable; it is nil unless RecordHistory was set.
	// Distributed local and primary runs can report false.
	Serializable *bool
	// Replication holds replica statistics for distributed local-
	// ceiling runs, nil otherwise.
	Replication *dist.ReplicationStats
	// Trace holds the event log when tracing was requested.
	Trace *stats.Trace
	// Recovery summarizes the write-ahead log at the end of a WAL run,
	// nil otherwise.
	Recovery *RecoveryInfo
	// Messages is the total inter-site message count (distributed
	// runs).
	Messages int
	// Net breaks the message traffic down by outcome (distributed
	// runs), attributing every loss to its cause; nil for single-site
	// runs.
	Net *stats.NetReport
	// Journal is the deterministic replay journal, nil unless the
	// Journal flag was set: Audit and Metrics observe the records as
	// the run goes, Journal keeps them.
	Journal *journal.Journal
	// Violations lists invariant violations found by the auditors; it
	// is non-nil (possibly empty) exactly when Audit was set.
	Violations []audit.Violation
	// Metrics is the registry's final state, nil unless the Metrics
	// flag was set; its time series is the Series of the Timeline rows.
	Metrics *metrics.Registry
	// LockProfile is the lock-contention profile the run's journal
	// records built as they were written, nil unless the Metrics flag
	// was set.
	LockProfile *metrics.Profile
	// Timeline holds the retained window rows of a TimelineWindow or
	// Metrics run, oldest first; nil otherwise. Export with the
	// facade's TimelineJSONL, TimelineCSV, MetricsCSV, or HTMLReport.
	Timeline []metrics.TimelineRow
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
			w.MeanInterarrival = 450 * sim.Millisecond
		} else {
			w.MeanInterarrival = 30 * sim.Millisecond
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

func (cfg *SingleSiteConfig) fill() {
	if cfg.Protocol == "" {
		cfg.Protocol = ProtoCeiling
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 200
	}
	if cfg.CPUPerObj == 0 {
		cfg.CPUPerObj = 10 * sim.Millisecond
	}
	if cfg.IOPerObj == 0 {
		cfg.IOPerObj = 20 * sim.Millisecond
	}
	cfg.Workload.fill(true)
}

// Validate reports why cfg, with the documented defaults filled in,
// cannot run.
func (cfg SingleSiteConfig) Validate() error {
	cfg.fill()
	_, err := cfg.check()
	return err
}

// check validates a filled config and returns its protocol's row.
func (cfg *SingleSiteConfig) check() (*core.ProtocolRow, error) {
	row, err := core.Lookup(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("rtlock: %w", err)
	}
	if err := cfg.Workload.check(false); err != nil {
		return nil, err
	}
	return row, nil
}

// Validate reports why cfg, with the documented defaults filled in,
// cannot run.
func (cfg DistributedConfig) Validate() error {
	cfg.fill()
	mode, err := cfg.check()
	if err != nil || !mode.LocalWriteSets() || cfg.Workload.Transactions != nil {
		return err
	}
	// Under local write sets an update draws its objects from its home
	// site's primaries, so the generator checks the catalog too; these
	// modes lay it out in full, as NewCatalog does.
	cat, err := db.NewCatalog(cfg.Sites, cfg.DBSize)
	if err != nil {
		return err
	}
	return generatorParams(cfg.Workload, cat, cfg.CPUPerObj, true).Validate()
}

func (cfg *DistributedConfig) fill() {
	if cfg.Sites == 0 {
		cfg.Sites = 3
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 200
	}
	if cfg.CPUPerObj == 0 {
		cfg.CPUPerObj = 10 * sim.Millisecond
	}
	if cfg.CommDelay == 0 {
		cfg.CommDelay = 20 * sim.Millisecond
	}
	cfg.Workload.fill(false)
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = cfg.Workload.Seed
	}
}

// check validates a filled config and returns the execution mode Global
// and Placement select.
func (cfg *DistributedConfig) check() (dist.Mode, error) {
	var pol place.Policy
	if cfg.Placement != "" {
		var err error
		if pol, err = place.ParsePolicy(cfg.Placement); err != nil {
			return 0, err
		}
	}
	mode, err := dist.ModeFor(cfg.Global, pol)
	if err != nil {
		return 0, err
	}
	if err := cfg.Workload.check(!mode.LocalWriteSets()); err != nil {
		return 0, err
	}
	for _, f := range cfg.Failures {
		if f.Site < 0 || int(f.Site) >= cfg.Sites {
			return 0, fmt.Errorf("rtlock: failure of site %d, outside the %d sites", f.Site, cfg.Sites)
		}
	}
	if err := cfg.Faults.Validate(cfg.Sites); err != nil {
		return 0, err
	}
	return mode, nil
}

// check validates the load's fractions; locality says whether the run
// reads LocalityProb.
func (w *WorkloadConfig) check(locality bool) error {
	if w.ReadOnlyFrac < 0 || w.ReadOnlyFrac > 1 {
		return fmt.Errorf("rtlock: workload.readOnlyFrac %v out of [0,1]", w.ReadOnlyFrac)
	}
	if w.LocalityProb != 0 && !locality {
		return fmt.Errorf("rtlock: %q requires a distributed sharded, quorum, or primary-only placement", "workload.localityProb")
	}
	if w.LocalityProb < 0 || w.LocalityProb > 1 {
		return fmt.Errorf("rtlock: workload.localityProb %v out of [0,1]", w.LocalityProb)
	}
	return nil
}

// RunSingleSite executes one single-site simulation with the documented
// defaults filled in.
func RunSingleSite(cfg SingleSiteConfig) (*Result, error) {
	cfg.fill()
	return runSingleSite(cfg, true)
}

// RunDistributed executes one distributed simulation with the documented
// defaults filled in.
func RunDistributed(cfg DistributedConfig) (*Result, error) {
	cfg.fill()
	mode, err := cfg.check()
	if err != nil {
		return nil, err
	}
	return runDistributed(cfg, mode, true)
}

// Spec is a complete run description: one of the two run configs, the
// other nil.
type Spec struct {
	// Single is the single-site run (the setting of Figures 2–3).
	Single *SingleSiteConfig
	// Distributed is the distributed run (the setting of Figures 4–6).
	Distributed *DistributedConfig
}

// Run executes the specification.
func (s *Spec) Run() (*Result, error) {
	switch {
	case s.Single != nil:
		return RunSingleSite(*s.Single)
	case s.Distributed != nil:
		return RunDistributed(*s.Distributed)
	}
	return nil, fmt.Errorf("rtlock: spec selects no run config")
}

// runSingleSite checks, assembles and runs the single-site system cfg
// describes, taking every field as it is. With records the Result
// carries the monitor's per-transaction records; a caller that reads
// only the aggregates is spared their copy.
func runSingleSite(cfg SingleSiteConfig, records bool) (*Result, error) {
	row, err := cfg.check()
	if err != nil {
		return nil, err
	}
	if cfg.MemoryResident {
		cfg.IOPerObj = 0
	}
	// Generated loads stream: arrivals are scheduled one event at a
	// time, so a million-transaction run never materializes the whole
	// load. LoadStream journals identically to Load.
	var stream *workload.Stream
	if cfg.Workload.Transactions == nil {
		cat, err := db.NewCatalog(1, cfg.DBSize)
		if err != nil {
			return nil, err
		}
		if stream, err = workload.NewStream(generatorParams(cfg.Workload, cat, cfg.CPUPerObj+cfg.IOPerObj, false)); err != nil {
			return nil, err
		}
	}
	rec := &recording{
		journal: cfg.Journal, audit: cfg.Audit, metrics: cfg.Metrics, history: cfg.RecordHistory, records: records,
		traceEvents: cfg.TraceEvents, window: cfg.TimelineWindow, interval: cfg.MetricsInterval,
		maxWindows: cfg.TimelineMaxWindows,
	}
	if cfg.Audit {
		rec.auds = audit.ForManager(row.Name)
	}
	rec.start(cfg.Workload.Seed, func() string {
		return fmt.Sprintf("single/%s/db=%d/cpu=%d/io=%d/count=%d/size=%d/ro=%g",
			cfg.Protocol, cfg.DBSize, int64(cfg.CPUPerObj), int64(cfg.IOPerObj),
			cfg.Workload.Count, cfg.Workload.MeanSize, cfg.Workload.ReadOnlyFrac)
	})
	sys, err := txn.NewSystem(txn.Config{
		CPUPerObj:       cfg.CPUPerObj,
		IOPerObj:        cfg.IOPerObj,
		CPUDiscipline:   row.Discipline,
		NewManager:      row.New,
		BufferPages:     cfg.BufferPages,
		LockOverhead:    cfg.lockOverhead,
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
	res := rec.finish(sys.Run(), sys.Monitor)
	if sys.Log != nil {
		res.Recovery = &RecoveryInfo{
			Records:          sys.Log.Records(),
			Checkpoints:      sys.Log.Checkpoints(),
			RedoTail:         sys.Log.RedoLength(),
			EstimatedRestart: sys.Log.RecoveryTime(),
		}
	}
	return res, nil
}

// runDistributed assembles and runs the cluster cfg describes in mode,
// taking every field as it is (records as in runSingleSite).
func runDistributed(cfg DistributedConfig, mode dist.Mode, records bool) (*Result, error) {
	rec := &recording{
		journal: cfg.Journal, audit: cfg.Audit, metrics: cfg.Metrics, history: cfg.RecordHistory, records: records,
		window: cfg.TimelineWindow, interval: cfg.MetricsInterval, maxWindows: cfg.TimelineMaxWindows,
	}
	if cfg.Audit {
		rec.auds = audit.ForCluster(mode.String(), !cfg.Faults.Empty())
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
		Replicas:      cfg.Replicas,
		ReadQuorum:    cfg.ReadQuorum,
		WriteQuorum:   cfg.WriteQuorum,
		Sites:         cfg.Sites,
		Objects:       cfg.DBSize,
		CommDelay:     cfg.CommDelay,
		Topology:      cfg.Topology,
		GCMSite:       cfg.GCMSite,
		CPUPerObj:     cfg.CPUPerObj,
		Multiversion:  cfg.Multiversion,
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
		if err := cluster.AttachFaults(faults.New(cfg.Faults, cfg.FaultSeed)); err != nil {
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
	res := rec.finish(cluster.Run(), cluster.Monitor)
	net := cluster.NetReport()
	res.Messages, res.Net = cluster.Net.Sent, &net
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
	journal, audit, metrics, history, records bool
	auds                                      []audit.Auditor
	traceEvents                               int
	window, interval                          sim.Duration
	maxWindows                                int

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
			window = 100 * sim.Millisecond
		}
	}
	r.tl = timeline.New(timeline.Config{Window: window, MaxWindows: r.maxWindows}, r.reg)
}

// finish builds the run's Result: its summary, the monitor's records
// when asked for, and what the observers recorded, which it closes.
func (r *recording) finish(sum stats.Summary, mon *stats.Monitor) *Result {
	res := &Result{Summary: sum, RawRetained: mon.RawRetained(), RawDropped: mon.RawDropped()}
	if r.records {
		res.Records = mon.Records()
	}
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
	return res
}

// generatorParams maps a workload config onto generator parameters: the
// one mapping every run uses, so a knob cannot reach one kind of run and
// silently miss another.
func generatorParams(w WorkloadConfig, cat *db.Catalog, perObjCost sim.Duration, localWriteSets bool) workload.Params {
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
		ImplicitDeadlines: w.ImplicitDeadlines,
		BurstFactor:       w.BurstFactor,
		BurstOn:           w.BurstOn,
		BurstOff:          w.BurstOff,
		Policy:            w.policy,
		HotspotFrac:       0.1,
		HotspotProb:       w.hotspot,
	}
}
