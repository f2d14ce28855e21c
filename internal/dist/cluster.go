// Package dist runs real-time transactions over a cluster of sites. It
// implements the paper's two distributed ceiling architectures (§4) —
// the global ceiling manager and local ceilings over full replication —
// and the placement spectrum beyond them (primary-copy sharding, quorum
// replication, and an uncoordinated primary-only baseline) as five
// modes of one transaction pipeline: see Mode and the mode table in
// mode.go, and exec in exec.go.
package dist

import (
	"errors"
	"fmt"
	"strconv"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/timeline"
	"rtlock/internal/txn"
	"rtlock/internal/wal"
	"rtlock/internal/workload"
)

// ErrSiteCrashed aborts work resident at a site the fault plan crashed:
// its volatile state is gone, so in-flight transactions and installers
// there are killed (and recorded as missed).
var ErrSiteCrashed = errors.New("dist: home site crashed")

// Config parameterizes a distributed run.
type Config struct {
	// Mode selects the execution model (required).
	Mode Mode
	// Replicas is the number of copies per object K (quorum mode only;
	// zero means min(3, Sites)).
	Replicas int
	// ReadQuorum is the number of replicas a read must reach, R
	// (quorum mode only; zero means a majority of Replicas).
	ReadQuorum int
	// WriteQuorum is the number of replicas a write must reach, W
	// (quorum mode only; zero means the smallest W with R+W > K).
	WriteQuorum int
	// Sites is the number of fully interconnected sites.
	Sites int
	// Objects is the database size.
	Objects int
	// CommDelay is the one-way inter-site communication delay
	// (uniform full mesh). Ignored when Topology is set.
	CommDelay sim.Duration
	// Topology, when non-nil, supplies per-pair delays (ring, star,
	// custom) instead of the uniform full mesh.
	Topology *netsim.Topology
	// CPUPerObj is the CPU demand per object access. The distributed
	// experiments simulate a memory-resident database: no I/O cost.
	CPUPerObj sim.Duration
	// GCMSite hosts the global ceiling manager (global mode only).
	GCMSite db.SiteID
	// Multiversion makes read-only transactions in local mode read a
	// temporally consistent snapshot — for every object, the newest
	// version written at or before (arrival − SnapshotLag) — instead of
	// each replica's latest copy. This is the multi-version
	// scheme the paper's §4 closes with: controlling the time lags of
	// distributed versions so decisions rest on temporally consistent
	// data.
	Multiversion bool
	// SnapshotLag is the snapshot age Δ; it should cover the
	// propagation delay so snapshots are complete at every replica
	// (zero means the default of 3×CommDelay + 10×applyPerObj).
	SnapshotLag sim.Duration
	// InstallRetries bounds how many times a replica installer retries
	// when its lock wait times out; afterwards the update is dropped
	// and counted (zero means the default of 5).
	InstallRetries int
	// InstallTimeout is the per-attempt installer lock timeout (zero
	// means the default of 50× applyPerObj, at least 10ms).
	InstallTimeout sim.Duration
	// applyPerObj is the CPU demand to install one replicated update
	// at a secondary site (local mode only): fill derives it as half of
	// CPUPerObj, at least one tick.
	applyPerObj sim.Duration
	// Journal, when non-nil, receives every kernel-level event of the
	// run (scheduling, locking, 2PC, replication) for deterministic
	// replay and invariant auditing.
	Journal *journal.Journal
	// VoteFault, when non-nil, is consulted by each two-phase-commit
	// participant: returning true makes that site vote abort for the
	// transaction. Used by tests to exercise the global abort path;
	// production participants are memory-resident and always vote
	// commit.
	VoteFault func(site db.SiteID, txID int64) bool
	// WALForceFault, when non-nil, is consulted when a participant
	// forces its yes-vote to the write-ahead log: returning true drops
	// that one force — the site proceeds as prepared but the log record
	// is lost, so a crash forgets the vote. Used by tests to seed a
	// durability weakening the fault-space explorer must find.
	WALForceFault func(site db.SiteID, txID int64) bool
	// Timeline, the run's one time-series store, and MaxRawRecords, the
	// Monitor's raw TxRecord cap, are txn.Config's.
	Timeline      *timeline.Collector
	MaxRawRecords int
}

// Validate checks the configuration's explicit values. Zero values of
// optional fields mean "use the default" and are always valid; fill
// applies the defaults after validation and only derives values Validate
// would accept.
func (c *Config) Validate() error {
	if !c.Mode.valid() {
		return fmt.Errorf("dist: unknown mode %d", int(c.Mode))
	}
	if c.Mode != Quorum && (c.Replicas != 0 || c.ReadQuorum != 0 || c.WriteQuorum != 0) {
		return fmt.Errorf("dist: replica and quorum parameters require placement quorum")
	}
	if c.Mode == Quorum && c.Sites >= 1 {
		k := c.Replicas
		if k == 0 {
			k = defaultReplicas(c.Sites)
		}
		if c.Replicas != 0 && (c.Replicas < 1 || c.Replicas > c.Sites) {
			return fmt.Errorf("dist: replica count %d out of range [1,%d]", c.Replicas, c.Sites)
		}
		if c.ReadQuorum != 0 && (c.ReadQuorum < 1 || c.ReadQuorum > k) {
			return fmt.Errorf("dist: read quorum %d out of range [1,%d]", c.ReadQuorum, k)
		}
		if c.WriteQuorum != 0 && (c.WriteQuorum < 1 || c.WriteQuorum > k) {
			return fmt.Errorf("dist: write quorum %d out of range [1,%d]", c.WriteQuorum, k)
		}
		if c.ReadQuorum != 0 && c.WriteQuorum != 0 && c.ReadQuorum+c.WriteQuorum <= k {
			return fmt.Errorf("dist: quorums R=%d W=%d do not intersect over K=%d replicas (need R+W > K)", c.ReadQuorum, c.WriteQuorum, k)
		}
	}
	if c.Sites < 1 {
		return fmt.Errorf("dist: sites must be >= 1, got %d", c.Sites)
	}
	if c.Objects < 1 {
		return fmt.Errorf("dist: objects must be >= 1, got %d", c.Objects)
	}
	if c.CPUPerObj <= 0 {
		return fmt.Errorf("dist: CPUPerObj must be positive")
	}
	if c.CommDelay < 0 {
		return fmt.Errorf("dist: negative communication delay")
	}
	if c.Topology != nil && c.Topology.Sites() != c.Sites {
		return fmt.Errorf("dist: topology has %d sites, config has %d", c.Topology.Sites(), c.Sites)
	}
	if int(c.GCMSite) < 0 || int(c.GCMSite) >= c.Sites {
		return fmt.Errorf("dist: GCM site %d out of range", c.GCMSite)
	}
	return nil
}

// defaultReplicas is the default copy count K for the quorum placement.
func defaultReplicas(sites int) int {
	if sites < 3 {
		return sites
	}
	return 3
}

// buildPlacement constructs the mode's layout over the validated
// configuration (defaults already filled in).
func (c *Config) buildPlacement() (place.Map, error) {
	switch modes[c.Mode].layout {
	case place.Sharded:
		return place.NewSharded(c.Sites, c.Objects, place.RangePartition)
	case place.Quorum:
		return place.NewQuorum(c.Sites, c.Objects, place.RangePartition, c.Replicas, c.ReadQuorum, c.WriteQuorum)
	case place.PrimaryOnly:
		return place.NewPrimaryOnly(c.Sites, c.Objects, place.RangePartition)
	default:
		return place.NewFull(c.Sites, c.Objects)
	}
}

func (c *Config) fill() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Mode == Quorum {
		if c.Replicas == 0 {
			c.Replicas = defaultReplicas(c.Sites)
		}
		if c.ReadQuorum == 0 {
			c.ReadQuorum = c.Replicas/2 + 1
		}
		if c.WriteQuorum == 0 {
			c.WriteQuorum = c.Replicas - c.ReadQuorum + 1
		}
		// Re-check the derived triple: an explicit R or W combined with
		// a defaulted partner must still intersect.
		if c.ReadQuorum+c.WriteQuorum <= c.Replicas {
			return fmt.Errorf("dist: quorums R=%d W=%d do not intersect over K=%d replicas (need R+W > K)", c.ReadQuorum, c.WriteQuorum, c.Replicas)
		}
	}
	c.applyPerObj = max(c.CPUPerObj/2, 1)
	if c.InstallRetries <= 0 {
		c.InstallRetries = 5
	}
	if c.SnapshotLag <= 0 {
		c.SnapshotLag = 3*c.CommDelay + 10*c.applyPerObj
	}
	if c.InstallTimeout <= 0 {
		c.InstallTimeout = 50 * c.applyPerObj
		if c.InstallTimeout < 10*sim.Millisecond {
			c.InstallTimeout = 10 * sim.Millisecond
		}
	}
	return nil
}

// site is one node: its processor and store, the versioned store of
// local mode's replicas, and the ceiling manager answering lock requests
// here (nil where the mode keeps none: see the setup functions).
type site struct {
	id    db.SiteID
	cpu   *sim.CPU
	store *db.Store
	mv    *db.MVStore
	mgr   *core.Ceiling
	// own is the manager the mode's setup (or AttachFaults, for a
	// failover manager) built for the site, reset by a Reset. restarts
	// are the empty managers crashes restarted the site with, kept for
	// the crashes of later runs; this run has used the first restarted.
	own       *core.Ceiling
	restarts  []*core.Ceiling
	restarted int
	// installNames are the journal-only names of the site's installers,
	// "install-<origin>@<site>", kept across resets.
	installNames txn.Names
}

// ReplicationStats aggregates the replica behavior of local mode, the
// only mode that reads possibly stale copies.
type ReplicationStats struct {
	// ReadSamples counts read operations that checked staleness.
	ReadSamples int
	// StaleReads counts reads that observed a copy older than the
	// primary — the paper's temporal inconsistency.
	StaleReads int
	// TotalLag sums the observed staleness over stale reads.
	TotalLag sim.Duration
	// Installs counts successfully applied replica updates.
	Installs int
	// InstallDrops counts updates dropped after exhausting retries.
	InstallDrops int

	// ConsistentViews and InconsistentViews classify committed
	// read-only transactions with at least two reads: a view is
	// temporally consistent when a single instant exists at which
	// every version it read was the newest one (checked against the
	// primary copies' histories).
	ConsistentViews   int
	InconsistentViews int
	// UnknownViews counts views that could not be classified because
	// a read version was evicted from the bounded history.
	UnknownViews int
	// SnapshotMisses counts multiversion reads whose snapshot version
	// had already been evicted (the reader fell back to the latest
	// copy).
	SnapshotMisses int
}

// Cluster is a distributed real-time database instance.
type Cluster struct {
	K       *sim.Kernel
	Net     *netsim.Network
	Catalog *db.Catalog
	Monitor *stats.Monitor

	cfg   Config
	life  txn.Lifecycle
	mode  *modeRow
	sites []*site
	// gcm is global mode's manager (also sites[GCMSite].mgr), else nil.
	gcm        *core.Ceiling
	repl       ReplicationStats
	installSeq int64
	twopc      map[int64]*voteCollector
	decisions  int
	qrounds    map[quorumKey]*quorumRound
	// runs, states and installers pool the per-attempt runs, pin
	// states and replica installers (see txRun, discharge and
	// installer).
	runs       []*txRun
	states     core.TxPool
	installers []*installer
	// bodies carves message bodies, which are never reused (see slab).
	bodies bodies

	// Fault-plan state, inert until AttachFaults is called. faultsOn
	// gates every behavioral addition so a cluster without a plan is
	// byte-identical to earlier revisions.
	faultsOn   bool
	gcmDown    bool
	inj        *faults.Injector
	hooks      faults.Hooks // the injector's, bound once
	fault      []siteFault  // one per site
	resolveTok map[resolveKey]*sim.Token

	// Probe handles, cached at construction (no-ops without a
	// registry).
	mGCMDown   sim.Gauge
	mFailovers sim.Counter
	// Per-mode probes, initialized only in the matching mode.
	mShardLocal   sim.Counter
	mShardCross   sim.Counter
	mQuorumReads  sim.Counter
	mQuorumWrites sim.Counter
}

// siteFault is one site's fault-plan state.
type siteFault struct {
	crashed bool
	crashAt sim.Time
	wal     *wal.Log
	// prepared holds the site's in-doubt participants and liveTx the
	// processes of the transactions homed here.
	prepared map[int64]*preparedTx
	liveTx   map[int64]*sim.Proc
	// reg tracks the registrations at this site's managers that a crash
	// elsewhere must be able to evict (see enroll).
	reg map[int64]regEntry
}

// preparedTx is a participant's volatile state for an in-doubt
// transaction: it voted yes (the vote is on its WAL) and awaits the
// decision; timeout fires a resolver if the decision never arrives.
type preparedTx struct {
	coord   db.SiteID
	objs    []core.ObjectID
	timeout sim.EventRef
	// at is when this participant became prepared (vote forced or
	// redone), the start of its in-doubt window.
	at sim.Time
}

// resolveKey identifies one participant's decision-resolution attempt.
type resolveKey struct {
	site db.SiteID
	tx   int64
}

// NewCluster assembles a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pm, err := cfg.buildPlacement()
	if err != nil {
		return nil, err
	}
	cat, err := db.NewCatalogWithPlacement(pm)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	net := netsim.NewNetwork(k, cfg.CommDelay)
	if cfg.Topology != nil {
		net = netsim.NewNetworkTopology(k, cfg.Topology)
	}
	c := &Cluster{
		K:       k,
		Net:     net,
		Catalog: cat,
		mode:    &modes[cfg.Mode],
		sites:   make([]*site, 0, cfg.Sites),
	}
	c.life = txn.NewLifecycle(k, c.arrive)
	c.Monitor = c.life.Monitor
	c.hooks = faults.Hooks{OnCrash: c.onCrash, OnRecover: c.onRecover}
	for i := 0; i < cfg.Sites; i++ {
		c.sites = append(c.sites, &site{
			id:           db.SiteID(i),
			cpu:          sim.NewCPU(k, sim.PreemptivePriority),
			store:        db.NewStore(db.SiteID(i)),
			installNames: txn.NewNames("install-", "@"+strconv.Itoa(i)),
		})
	}
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the cluster to the state NewCluster(cfg) leaves it in,
// ready for a new load and, once more, AttachFaults, keeping what it has
// built and grown: the kernel and its idle workers, the network and its
// servers, the sites' processors, stores and managers, the pools of
// runs, states and installers, and the WALs. cfg must describe the
// cluster NewCluster built — its mode, sites, objects, placement and
// delays are read at construction only — while its journal, timeline
// and hooks may differ. The previous load must have run to completion.
func (c *Cluster) Reset(cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	k := c.K
	k.Reset()
	k.SetJournal(cfg.Journal, 0)
	// Attach the registry before the network, the per-site CPUs and the
	// managers are reset: they take their probe handles from it.
	k.SetMetrics(cfg.Timeline.Probes())
	k.SetWindows(cfg.Timeline.Window(), cfg.Timeline)
	c.Net.Reset()
	c.cfg = cfg
	c.life.Reset(cfg.Timeline, cfg.MaxRawRecords)
	c.life.MissReason(ErrSiteCrashed, "crashed")
	m := k.Metrics()
	c.mGCMDown = m.Gauge("dist_gcm_down", "1 while the global ceiling manager's site is crashed.")
	c.mFailovers = m.Counter("dist_failovers_total", "Lock requests served by a failover manager while the GCM was down.")
	c.gcm = nil
	c.repl = ReplicationStats{}
	c.installSeq, c.decisions = 0, 0
	clear(c.twopc)
	clear(c.qrounds)
	c.faultsOn, c.gcmDown, c.inj = false, false, nil
	for _, s := range c.sites {
		s.cpu.Reset(sim.PreemptivePriority)
		s.store.Reset()
		if s.mv != nil {
			s.mv.Reset()
		}
		s.mgr, s.restarted = nil, 0
	}
	c.mode.setup(c)
	return nil
}

// newManager builds a ceiling manager journaling as site.
func (c *Cluster) newManager(site db.SiteID) *core.Ceiling {
	m := core.NewCeiling(c.K)
	m.SetJournalSite(int32(site))
	return m
}

// restartManager returns the empty manager a crash restarts s with: one
// an earlier run's crash built, reset, or a new one. The manager it
// replaces stays as it was, for the attempts pinned to it.
func (c *Cluster) restartManager(s *site) *core.Ceiling {
	if s.restarted == len(s.restarts) {
		s.restarts = append(s.restarts, c.newManager(s.id))
	} else {
		s.restarts[s.restarted].Reset()
	}
	s.restarted++
	return s.restarts[s.restarted-1]
}

// ownManager returns s's own manager (see site.own), built on its first
// use and reset on each use after.
func (c *Cluster) ownManager(s *site) *core.Ceiling {
	if s.own == nil {
		s.own = c.newManager(s.id)
	} else {
		s.own.Reset()
	}
	return s.own
}

// TwoPCDecisions reports how many two-phase-commit decisions reached
// participants (global, shard and quorum modes).
func (c *Cluster) TwoPCDecisions() int { return c.decisions }

// FailSite schedules a site to become non-operational at the given
// virtual time, recovering at recoverAt (no recovery if recoverAt is not
// after at). Messages to the down site are dropped and synchronous
// requests toward it time out, per the paper's message-server time-out
// mechanism. The site's own processor keeps running (the failure models
// reachability, not a crash of local work).
func (c *Cluster) FailSite(site db.SiteID, at, recoverAt sim.Time) {
	c.K.At(at, func() { c.Net.SetDown(site, true) })
	if recoverAt > at {
		c.K.At(recoverAt, func() { c.Net.SetDown(site, false) })
	}
}

// AttachFaults wires a fault injector into the cluster; call it once,
// before Run. The crash-aware protocol paths switch on — participant
// votes are WAL-forced and redone on recovery, the coordinator retries
// prepares with bounded backoff and presumes abort, and (global mode)
// lock traffic fails over to per-site ceiling managers while the GCM
// site is down — and the injector is installed: it becomes the
// network's per-message fault source, and its plan's crash and
// partition windows (and, armed, its decision points) are scheduled as
// kernel events. Attaching a nil injector (an empty plan's) enables the
// same machinery but injects nothing; the run's journal stays
// byte-identical to one without the plan. A plan that does not
// validate against the cluster is an error.
func (c *Cluster) AttachFaults(in *faults.Injector) error {
	c.faultsOn = true
	if c.fault == nil {
		c.resolveTok = make(map[resolveKey]*sim.Token)
		c.fault = make([]siteFault, c.cfg.Sites)
		for i := range c.fault {
			c.fault[i] = siteFault{wal: wal.NewLog(), prepared: make(map[int64]*preparedTx), liveTx: make(map[int64]*sim.Proc)}
		}
	}
	// A cluster reset since the last AttachFaults keeps the fault state
	// it grew, emptied.
	clear(c.resolveTok)
	for i := range c.fault {
		f := &c.fault[i]
		f.crashed, f.crashAt = false, 0
		f.wal.Reset()
		clear(f.prepared)
		clear(f.liveTx)
		clear(f.reg)
	}
	if c.gcm != nil {
		for _, s := range c.sites {
			if s.mgr == nil {
				s.mgr = c.ownManager(s) // failover manager
			}
		}
	}
	c.inj = in
	return in.Install(c.K, c.Net, c.cfg.Sites, c.hooks)
}

// ChosenFaultPlan returns the exact faults the attached injector
// injected (nil without one, or when it injected none). Replaying it
// through AttachFaults regenerates the same failure schedule — and, for
// the same (seed, config) journal key, a byte-identical journal.
func (c *Cluster) ChosenFaultPlan() *faults.Plan { return c.inj.ChosenPlan() }

// WAL returns a site's write-ahead log (nil before AttachFaults), for
// inspection in tests and reports.
func (c *Cluster) WAL(site db.SiteID) *wal.Log {
	if c.fault == nil {
		return nil
	}
	return c.fault[site].wal
}

// onCrash loses a site's volatile state: resident transactions and
// installers die, un-decided 2PC bookkeeping vanishes (the WAL
// survives), the site's ceiling manager restarts empty — or, if it is
// the global manager, is marked down — and every surviving manager
// evicts the crashed site's registrations. Network unreachability is
// flipped by the injector before this hook runs.
func (c *Cluster) onCrash(siteID db.SiteID) {
	f := &c.fault[siteID]
	f.crashed = true
	f.crashAt = c.K.Now()

	// Kill resident transactions.
	for _, id := range sortedIDs(f.liveTx) {
		f.liveTx[id].Interrupt(ErrSiteCrashed)
	}

	// Wipe volatile 2PC participant state; pending decision timers die
	// with it. The WAL keeps the forced votes for recovery.
	for _, id := range sortedIDs(f.prepared) {
		f.prepared[id].timeout.Cancel()
	}
	clear(f.prepared)

	if s := c.sites[siteID]; s.mgr != nil && s.mgr == c.gcm {
		// The global manager's table outlives the crash; onRecover
		// resynchronizes it.
		c.gcmDown = true
		c.mGCMDown.Set(1)
	} else if s.mgr != nil {
		// A site's own lock table is volatile: recovery restarts it empty,
		// and the registrations tracked there died with it.
		s.mgr = c.restartManager(s)
		f.reg = nil
	}
	// Every surviving manager detects the crash and releases the crashed
	// site's registrations (the killed transactions skip their release).
	// The global manager journals every crash it detects; the others,
	// only an eviction.
	for _, s := range c.sites {
		if s.id == siteID {
			continue
		}
		n := c.evict(s.id, func(e regEntry) bool { return e.home == siteID })
		if n > 0 || (s.mgr != nil && s.mgr == c.gcm) {
			c.emit(s.id, journal.KResync, 0, 0, int64(n), int64(siteID), "evict")
		}
	}
}

// onRecover brings a site back: it replays the WAL's in-doubt votes
// into fresh prepared state and spawns resolvers to settle them with
// their coordinators; a recovering GCM site purges registrations whose
// transactions died while it was down and resumes global locking.
func (c *Cluster) onRecover(siteID db.SiteID) {
	f := &c.fault[siteID]
	f.crashed = false
	if d := c.K.Now().Sub(f.crashAt); d >= 0 {
		c.K.Metrics().Histogram("recovery_duration_ticks",
			"Crash-to-recovery (resync complete) windows per site, in ticks.", nil).Observe(int64(d))
	}
	if c.twopc == nil {
		return // no 2PC in this mode: nothing was in doubt
	}
	pending := f.wal.PendingVotes()
	c.emit(siteID, journal.KWALRedo, 0, 0, int64(len(pending)), 0, "")
	for _, v := range pending {
		f.prepared[v.Tx] = &preparedTx{coord: db.SiteID(v.Coord), objs: v.Objs, at: c.K.Now()}
	}
	for _, v := range pending {
		c.spawnResolver(siteID, v.Tx)
	}
	if siteID == c.cfg.GCMSite {
		c.gcmDown = false
		c.mGCMDown.Set(0)
		// The record is journaled in every 2PC mode (the faulted goldens
		// pin it); only the global manager has a surviving table to purge.
		n := 0
		if c.gcm != nil {
			n = c.evict(siteID, func(e regEntry) bool { return e.st.Proc.Dead() })
		}
		c.emit(siteID, journal.KResync, 0, 0, int64(n), int64(siteID), "resync")
	}
}

// Config returns the effective configuration (defaults filled in).
func (c *Cluster) Config() Config { return c.cfg }

// Replication returns the replica statistics (meaningful in local
// mode).
func (c *Cluster) Replication() ReplicationStats { return c.repl }

// NetReport aggregates the run's message-layer counters: the network's
// send, arrived-hop, aborted-hop and loss counts plus the delivery and
// no-handler counts of every site's message server. It only reads: a site that
// never had a server (every site in primary mode) contributes nothing.
func (c *Cluster) NetReport() stats.NetReport {
	r := stats.NetReport{
		Sent:         c.Net.Sent,
		Delivered:    c.Net.HopsArrived,
		Aborted:      c.Net.HopsAborted,
		DroppedDown:  c.Net.DroppedDown,
		DroppedCut:   c.Net.DroppedCut,
		DroppedFault: c.Net.DroppedFault,
		Duplicated:   c.Net.Duplicated,
	}
	for _, s := range c.sites {
		if srv := c.Net.Lookup(s.id); srv != nil {
			r.Delivered += srv.Delivered
			r.DroppedNoHandler += srv.Dropped
		}
	}
	return r
}

// Store returns site i's store, for inspection in tests and examples.
func (c *Cluster) Store(i db.SiteID) *db.Store { return c.sites[i].store }

// Load schedules the transactions' arrivals (see txn.Lifecycle.Load),
// so the event heap holds one pending arrival however long the load is.
func (c *Cluster) Load(txs []*workload.Txn) {
	c.life.Load(txs)
}

// LoadStream is Load over a stream, pulled one arrival at a time.
func (c *Cluster) LoadStream(src *workload.Stream) {
	c.life.LoadStream(src)
}

// arrive admits one arrival. An arrival at a crashed site is lost with
// the site's volatile state: it is recorded as an immediate miss and
// never spawns a process.
func (c *Cluster) arrive(t *workload.Txn) {
	if c.faultsOn && c.fault[t.Home].crashed {
		rec := c.life.Arrive(t, t.Home)
		c.life.Finish(&rec, ErrSiteCrashed)
		return
	}
	x := c.newRun(t)
	c.life.Spawn(&x.proc, t, x.body)
}

// Run drives the simulation to completion (see Drain) and returns the
// summary.
func (c *Cluster) Run() stats.Summary {
	c.Drain()
	sum := c.Monitor.Summarize()
	if h := c.Monitor.Horizon(); h > 0 {
		var busy sim.Duration
		for _, s := range c.sites {
			busy += s.cpu.Busy()
		}
		sum.CPUUtil = busy.Seconds() / (sim.Duration(h).Seconds() * float64(len(c.sites)))
	}
	return sum
}

// Drain drives the simulation to completion and tears down the message
// servers, leaving no process live.
func (c *Cluster) Drain() {
	c.K.Run()
	c.Net.Shutdown()
	c.K.Run()
	if c.K.Live() > 0 {
		// Stuck installers or transactions (should not happen: every
		// transaction has a deadline timer and installers time out).
		_ = c.K.Shutdown()
	}
}

// emit appends a site-tagged record to the cluster's journal (a no-op
// without one). Dist-layer events carry the transaction's home site or
// the site where the event physically happens, unlike the kernel's own
// records which use the kernel-wide default site.
func (c *Cluster) emit(site db.SiteID, kind journal.Kind, tx int64, obj int32, a, b int64, note string) {
	c.K.Journal().Append(int64(c.K.Now()), kind, int32(site), tx, obj, a, b, note)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
