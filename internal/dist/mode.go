package dist

import (
	"fmt"
	"slices"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// Mode selects the execution model: where the ceiling managers live and
// where data is read and written. Every mode runs the same transaction
// pipeline (exec); the mode table below holds what differs.
type Mode int

const (
	// Local is the paper's local ceiling approach: full replication,
	// updates homed at their write set's primary copies, synchronization
	// with the home site's manager only, local commit, asynchronous
	// propagation to the other replicas.
	Local Mode = iota + 1
	// Global is the paper's global ceiling manager: one manager decides
	// every lock request, data lives at its primary site, and writers
	// that touched remote primaries commit with two-phase commit.
	Global
	// Shard is primary-copy sharding: locks and data both live at each
	// object's primary, a transaction registers with every shard manager
	// its access sets touch, and cross-shard writers commit with 2PC.
	Shard
	// Quorum is Shard plus K-replica quorum replication: reads gather R
	// replica versions, committed writes reach W replicas before the
	// locks are released.
	Quorum
	// Primary is the uncoordinated baseline the coordinated modes are
	// priced against (the consistency tax): direct RPC to each primary,
	// no locks, no 2PC, serializability waived and journaled as such.
	Primary
)

func (m Mode) valid() bool { return m >= Local && m <= Primary }

// String is the mode's canonical name: the architecture segment of
// journal config keys and the key of the audit package's tables.
func (m Mode) String() string {
	if !m.valid() {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modes[m].name
}

// LocalWriteSets reports whether the mode's workload homes every update
// at the primary site of its whole write set (the paper's restriction 2,
// assumed by both its architectures); the sharded layouts spread write
// sets and bias them with LocalityProb instead.
func (m Mode) LocalWriteSets() bool { return m.valid() && modes[m].layout == place.Full }

// ModeFor resolves the (Global, placement) pair of the facade, spec
// files and command-line flags into a mode; zero means no placement was
// named. A placement policy names a complete execution model, so it
// cannot be combined with Global.
func ModeFor(global bool, pol place.Policy) (Mode, error) {
	var m Mode
	switch pol {
	case 0:
		if global {
			return Global, nil
		}
		return Local, nil
	case place.Full:
		m = Local
	case place.Sharded:
		m = Shard
	case place.Quorum:
		m = Quorum
	case place.PrimaryOnly:
		m = Primary
	default:
		return 0, fmt.Errorf("dist: unknown placement policy %d", int(pol))
	}
	if global {
		return 0, fmt.Errorf("dist: placement %s selects its own execution model; Global must be false", pol)
	}
	return m, nil
}

// modeRow is one row of the mode table: everything the shared pipeline
// does not decide for itself.
type modeRow struct {
	name   string
	layout place.Policy // the placement the catalog is built over
	// setup builds what only this mode needs once the sites exist: its
	// ceiling managers, handlers, probes, the placement banner.
	setup func(c *Cluster)
	// pin chooses the managers one attempt synchronizes with and builds
	// its protocol state at each, into x.pins (ascending by site).
	pin func(c *Cluster, x *txRun)
	// lockTrip makes each lock request a round trip of its own from the
	// home site: the manager is a service apart from the data. Otherwise
	// the lock is taken on arrival at the data site, where its manager
	// lives.
	lockTrip bool
	// dataAtHome accesses the home site's replica, not the primary.
	dataAtHome bool
	// access performs one operation at the data site, lock held; afterOp
	// runs back home once the operation is journaled.
	access  func(c *Cluster, x *txRun, op workload.Op, s *site, prio sim.Priority) error
	afterOp func(c *Cluster, x *txRun, op workload.Op, data db.SiteID) error
	// commit is the commit round, run with every lock still held; install
	// makes the committed writes visible once the release was issued.
	commit  func(c *Cluster, x *txRun) error
	install func(c *Cluster, x *txRun)
}

// modes is the mode table (DESIGN.md, "Distributed modes", renders it).
var modes = [...]modeRow{
	Local: {name: "local", layout: place.Full, setup: setupLocal,
		pin: pinHome, dataAtHome: true, access: sampleAndUse, afterOp: noAfterOp,
		commit: noCommit, install: installAndShip},
	Global: {name: "global", layout: place.Full, setup: setupGlobal,
		pin: pinGlobal, lockTrip: true, access: use, afterOp: noAfterOp,
		commit: commitTwoPC, install: installPrimaries},
	Shard: {name: "shard", layout: place.Sharded, setup: setupShard,
		pin: pinShards, access: use, afterOp: noAfterOp,
		commit: commitTwoPC, install: installPrimaries},
	Quorum: {name: "quorum", layout: place.Quorum, setup: setupQuorum,
		pin: pinShards, access: use, afterOp: readRound,
		commit: commitQuorum, install: noInstall},
	Primary: {name: "primary", layout: place.PrimaryOnly, setup: setupPrimary,
		pin: pinNothing, access: useAndWrite, afterOp: noAfterOp,
		commit: noCommit, install: noInstall},
}

// The hooks of rows with nothing to do at a step.
func pinNothing(*Cluster, *txRun)                              {}
func noAfterOp(*Cluster, *txRun, workload.Op, db.SiteID) error { return nil }
func noCommit(*Cluster, *txRun) error                          { return nil }
func noInstall(*Cluster, *txRun)                               {}

// managerPerSite gives every site its own ceiling manager; its lock
// table is volatile and restarts empty after a crash.
func managerPerSite(c *Cluster) {
	for _, s := range c.sites {
		s.mgr = c.ownManager(s)
	}
}

func setupTwoPC(c *Cluster) {
	if c.twopc == nil {
		c.twopc = make(map[int64]*voteCollector)
	}
	c.registerTwoPCHandlers()
}

// versionsKept bounds each object's retained history at a replica.
const versionsKept = 32

func setupLocal(c *Cluster) {
	managerPerSite(c)
	for _, s := range c.sites {
		if s.mv == nil {
			s.mv = db.NewMVStore(s.id, versionsKept)
		}
	}
	c.registerInstallHandlers()
}

// setupGlobal keeps the one global manager at Config.GCMSite. Its table
// survives the site's crash (the site resynchronizes it on recovery);
// once a fault plan is attached every other site also keeps a failover
// manager for transactions arriving while it is down.
func setupGlobal(c *Cluster) {
	s := c.sites[c.cfg.GCMSite]
	c.gcm = c.ownManager(s)
	s.mgr = c.gcm
	setupTwoPC(c)
}

func setupShard(c *Cluster) {
	managerPerSite(c)
	setupTwoPC(c)
	m := c.K.Metrics()
	c.mShardLocal = m.Counter("dist_shard_commits_total", "Committed update transactions by shard span.", metrics.L("kind", "local"))
	c.mShardCross = m.Counter("dist_shard_commits_total", "Committed update transactions by shard span.", metrics.L("kind", "cross"))
	c.placementBanner("")
}

func setupQuorum(c *Cluster) {
	managerPerSite(c)
	setupTwoPC(c)
	if c.qrounds == nil {
		c.qrounds = make(map[quorumKey]*quorumRound)
	}
	c.registerQuorumHandlers()
	m := c.K.Metrics()
	c.mQuorumReads = m.Counter("dist_quorum_rounds_total", "Completed quorum replication rounds by kind.", metrics.L("kind", "read"))
	c.mQuorumWrites = m.Counter("dist_quorum_rounds_total", "Completed quorum replication rounds by kind.", metrics.L("kind", "write"))
	c.placementBanner("")
}

func setupPrimary(c *Cluster) { c.placementBanner("; serializability waived") }

// placementBanner journals the run's placement once, so replays and
// auditors know the consistency contract in force.
func (c *Cluster) placementBanner(suffix string) {
	pm := c.Catalog.Placement()
	c.emit(0, journal.KPlacement, 0, 0, int64(pm.Policy()),
		int64(pm.ReadQuorum())|int64(pm.WriteQuorum())<<32, pm.String()+suffix)
}

// pinWhole pins the manager at site with the whole access sets.
func pinWhole(c *Cluster, x *txRun, site db.SiteID) {
	reads := x.accessSets(c.Catalog)
	x.pins = append(x.pins, pin{site: site, mgr: c.sites[site].mgr, st: c.newState(x, reads, x.writes), x: x})
}

func pinHome(c *Cluster, x *txRun) { pinWhole(c, x, x.t.Home) }

// pinGlobal pins the global manager. With a fault plan attached, a
// transaction arriving while the GCM site is down degrades gracefully:
// it pins its home site's failover manager instead (journaled as
// KFailover) and keeps all locking local for that attempt. The choice is
// sticky per attempt, preserving strict two-phase locking against a
// single manager; global serializability across managers is deliberately
// not promised during degraded windows (see DESIGN.md, "Fault model").
func pinGlobal(c *Cluster, x *txRun) {
	site := c.cfg.GCMSite
	if home := x.t.Home; c.faultsOn && c.gcmDown && home != site {
		site = home
		c.mFailovers.Inc()
		c.emit(home, journal.KFailover, x.t.ID, 0, int64(c.cfg.GCMSite), 0, "")
	}
	pinWhole(c, x, site)
}

// pinShards pins the manager of every primary the access sets touch,
// each with just the run of the sets it owns, so a shard's ceilings see
// only the demand actually arriving there.
func pinShards(c *Cluster, x *txRun) {
	reads := x.accessSets(c.Catalog)
	for _, s := range c.sites {
		r, w := c.ownedBy(reads, s.id), c.ownedBy(x.writes, s.id)
		if len(r)+len(w) > 0 {
			x.pins = append(x.pins, pin{site: s.id, mgr: s.mgr, st: c.newState(x, r, w), x: x})
		}
	}
}

// ownedBy is the run of objs, an access set ordered by primary site
// (see workload.Txn.AccessSets), whose primary is site.
func (c *Cluster) ownedBy(objs []core.ObjectID, site db.SiteID) []core.ObjectID {
	i := 0
	for i < len(objs) && c.Catalog.PrimarySite(objs[i]) != site {
		i++
	}
	j := i
	for j < len(objs) && c.Catalog.PrimarySite(objs[j]) == site {
		j++
	}
	return objs[i:j:j]
}

func use(c *Cluster, x *txRun, _ workload.Op, s *site, prio sim.Priority) error {
	return s.cpu.Use(&x.proc, prio, c.cfg.CPUPerObj)
}

// sampleAndUse reads the home replica: the read samples the copy's
// staleness against the primary and notes the version it saw, for the
// temporal-consistency classification of read-only views.
func sampleAndUse(c *Cluster, x *txRun, op workload.Op, s *site, prio sim.Priority) error {
	if op.Mode == core.Read {
		c.sampleStaleness(s, op.Obj, x.proc.Now())
		x.views = append(x.views, c.readVersion(s, op.Obj, x.t))
	}
	return use(c, x, op, s, prio)
}

// useAndWrite lands a write the instant its op executes: nothing orders
// concurrent transactions, which is exactly the waived consistency the
// baseline exists to price.
func useAndWrite(c *Cluster, x *txRun, op workload.Op, s *site, prio sim.Priority) error {
	if err := use(c, x, op, s, prio); err != nil {
		return err
	}
	if op.Mode == core.Write {
		s.store.Write(op.Obj, x.t.ID, x.proc.Now())
	}
	return nil
}

// commitTwoPC runs two-phase commit over the remote primaries the
// transaction wrote. Under a fault plan each participant's share of the
// write set rides in its prepare, so it can install the writes itself
// when the commit decision (possibly resolved after a crash) reaches it.
func commitTwoPC(c *Cluster, x *txRun) error { return c.runTwoPC(x, c.faultsOn) }

// commitQuorum decides atomically across the remote write shards, then
// replicates: 2PC covers only the decision — the data rides the write
// rounds, so the prepares carry no write-set shares even under faults.
// A deadline striking mid-replication leaves the already
// quorum-committed objects installed (there is no undo); the journal
// still records the miss.
func commitQuorum(c *Cluster, x *txRun) error {
	if err := c.runTwoPC(x, false); err != nil {
		return err
	}
	// x.writes runs by primary site; the rounds go in object order.
	x.order = append(x.order[:0], x.writes...)
	slices.Sort(x.order)
	for _, obj := range x.order {
		if err := c.quorumWrite(x, obj); err != nil {
			return err
		}
	}
	return nil
}

// installPrimaries applies committed writes at their primary sites
// (the accesses ran there; the values become visible at commit). Under a
// fault plan the remote primaries are 2PC participants and install
// their own share when the commit decision reaches them.
func installPrimaries(c *Cluster, x *txRun) {
	home := x.t.Home
	cross := false
	for _, obj := range x.writes {
		owner := c.Catalog.PrimarySite(obj)
		if owner != home {
			cross = true
			if c.faultsOn {
				continue
			}
		}
		c.sites[owner].store.Write(obj, x.t.ID, x.proc.Now())
	}
	// Shard-span probes exist in shard mode only (no-op handles elsewhere).
	if len(x.writes) > 0 {
		if cross {
			c.mShardCross.Inc()
		} else {
			c.mShardLocal.Inc()
		}
	}
}

// installAndShip commits locally — the new versions go onto the primary
// copies, which live at home by restriction 2 — and then propagates them
// to every other site; the transaction does not wait (restriction 3
// decouples primaries from secondaries).
func installAndShip(c *Cluster, x *txRun) {
	if x.t.Kind == workload.ReadOnly && len(x.views) >= 2 {
		c.classifyView(x.views)
	}
	if len(x.writes) == 0 {
		return
	}
	home, now := c.sites[x.t.Home], x.proc.Now()
	for _, obj := range x.writes {
		home.store.Write(obj, x.t.ID, now)
		home.mv.Write(obj, x.t.ID, now)
	}
	if len(c.sites) == 1 {
		return // no replica to ship to
	}
	writes := c.bodies.writes.take(len(x.writes))
	for i, obj := range x.writes {
		writes[i] = replicaWrite{obj: obj, seq: home.store.Read(obj).Seq}
	}
	// One body for every destination.
	msg := c.bodies.install.new(installMsg{origin: x.t.ID, deadline: x.t.Deadline, at: now, writes: writes})
	for _, other := range c.sites {
		if other.id != home.id {
			x.msgs++
			c.Net.Send(home.id, other.id, installPort, msg)
		}
	}
}
