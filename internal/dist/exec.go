package dist

import (
	"errors"
	"slices"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// ErrShardEvicted aborts a transaction whose request reached a manager
// that does not know it — the registration was lost while the site was
// unreachable, or the manager restarted after a crash — and refuses it.
var ErrShardEvicted = errors.New("dist: shard manager evicted transaction registration")

// pin is one ceiling manager a transaction attempt synchronizes with.
// The manager instance is fixed for the whole attempt: a crash replaces
// a site's (volatile) manager, and registration, requests and release
// must pair up against the same lock table.
type pin struct {
	site db.SiteID
	mgr  *core.Ceiling
	st   *core.TxState
}

// txRun is one transaction attempt on the pipeline.
type txRun struct {
	p *sim.Proc
	t *workload.Txn
	// pins are the managers the attempt registers with, ascending by
	// site; one backs a single pin without a second allocation.
	pins   []pin
	one    [1]pin
	writes []core.ObjectID // the whole write set, ascending (nil in primary mode)
	msgs   int             // inter-site messages the transaction caused
	views  []readSample    // the version each read observed (local mode)
}

// prioHook wires a transaction's priority inheritance to every site's
// processor (the process may be queued at any of them while executing
// remotely); the protocol states at all its pins share the one hook.
func (c *Cluster) prioHook(p *sim.Proc) func(sim.Priority) {
	return func(pr sim.Priority) {
		for _, s := range c.sites {
			s.cpu.Reprioritize(p, pr)
		}
	}
}

// newState builds the protocol state for one pin.
func newState(x *txRun, reads, writes []core.ObjectID, onPrio func(sim.Priority)) *core.TxState {
	st := core.NewTxState(x.t.ID, x.t.Priority(), x.p)
	st.ReadSet, st.WriteSet, st.OnPrioChange = reads, writes, onPrio
	return st
}

// exec runs one transaction through the pipeline every mode shares:
// arrive, pin managers, register, arm the deadline, run the operations,
// commit, release, install, record. What a mode does differently is in
// its row of the mode table.
func (c *Cluster) exec(p *sim.Proc, t *workload.Txn) {
	if c.faultsOn {
		c.liveTx[t.Home][t.ID] = p
		defer delete(c.liveTx[t.Home], t.ID)
	}
	m := c.mode
	x := &txRun{p: p, t: t}
	rec := c.life.Arrive(t, t.Home)
	m.pin(c, x)
	c.atPins(x, enroll)
	deadline := c.life.Deadline(p, t)
	err := c.runOps(x)
	if err == nil {
		err = m.commit(c, x)
	}
	deadline.Cancel()
	// Killed with its home site, the transaction has nothing to release:
	// the managers there are gone, and the surviving ones evicted the
	// registration on detecting the crash.
	if !c.faultsOn || !errors.Is(err, ErrSiteCrashed) {
		c.atPins(x, discharge)
		if err == nil {
			m.install(c, x)
		}
	}
	rec.Messages = x.msgs
	for i := range x.pins {
		rec.Blocked += x.pins[i].st.BlockedTime
		rec.BlockedCount += x.pins[i].st.BlockedCount
	}
	c.life.Finish(&rec, err)
}

// atPins runs step at every pinned manager: at once at the home site,
// one message later at a remote one — unless, under faults, the message
// is lost or the manager rebooted (a new lock table) while it traveled.
func (c *Cluster) atPins(x *txRun, step func(*Cluster, *txRun, *pin)) {
	home := x.t.Home
	for i := range x.pins {
		pn := &x.pins[i]
		if pn.site == home {
			step(c, x, pn)
			continue
		}
		x.msgs++
		c.K.After(c.Net.Delay(home, pn.site), func() {
			if c.faultsOn && (!c.Net.Reachable(home, pn.site) || c.sites[pn.site].mgr != pn.mgr) {
				return
			}
			step(c, x, pn)
		})
	}
}

// enroll announces the transaction (its access sets feed the ceilings)
// to a pinned manager. A remote registration is in effect before the
// first lock request arrives there: the request travels the same link.
func enroll(c *Cluster, x *txRun, pn *pin) {
	c.emit(pn.site, journal.KRegister, x.t.ID, 0, 0, 0, "")
	pn.mgr.Register(pn.st)
	// A crash must be able to find the registrations that outlive the
	// crashed site's own state: those at another site's manager, and any
	// at the global manager, whose table survives its site's crash.
	if c.faultsOn && (pn.site != x.t.Home || pn.mgr == c.gcm) {
		if c.reg[pn.site] == nil {
			c.reg[pn.site] = make(map[int64]regEntry)
		}
		c.reg[pn.site][x.t.ID] = regEntry{pin: *pn, home: x.t.Home}
	}
}

// discharge releases and unregisters at a pinned manager after the
// outcome. The locks stay held while a remote release travels — the cost
// the paper attributes to holding locks across the network — and a lost
// one is reclaimed by crash eviction or the global manager's resync.
func discharge(c *Cluster, x *txRun, pn *pin) {
	if c.faultsOn && !pn.mgr.Registered(pn.st) {
		return // the registration was lost, or evicted meanwhile: nothing to release
	}
	pn.mgr.ReleaseAll(pn.st)
	pn.mgr.Unregister(pn.st)
	c.emit(pn.site, journal.KUnregister, x.t.ID, 0, 0, 0, "")
	if c.faultsOn {
		delete(c.reg[pn.site], x.t.ID)
	}
}

// regEntry tracks one registration at a manager so a crash can evict it.
type regEntry struct {
	pin
	home db.SiteID
}

// evict releases the registrations tracked at site that gone selects, in
// transaction-id order, and reports how many there were.
func (c *Cluster) evict(site db.SiteID, gone func(regEntry) bool) int {
	n := 0
	for _, id := range sortedIDs(c.reg[site]) {
		if e := c.reg[site][id]; gone(e) {
			e.mgr.ReleaseAll(e.st)
			e.mgr.Unregister(e.st)
			delete(c.reg[site], id)
			n++
		}
	}
	return n
}

// sortedIDs lists a table's ids ascending: crash handling is deterministic.
func sortedIDs[V any](m map[int64]V) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// hop moves the process between its home and another site (nothing to
// do at home). A request and its reply are two messages, booked on the
// way out.
func (c *Cluster) hop(x *txRun, from, to db.SiteID) error {
	if from == to {
		return nil
	}
	if from == x.t.Home {
		x.msgs += 2
	}
	return c.Net.Hop(x.p, from, to)
}

// acquire asks a pinned manager, on site, for op's lock.
func (c *Cluster) acquire(x *txRun, pn *pin, op workload.Op) error {
	if c.faultsOn && (c.sites[pn.site].mgr != pn.mgr || !pn.mgr.Registered(pn.st)) {
		// The manager restarted (dropping its lock table) or never got
		// the registration: it refuses a transaction it does not know.
		return ErrShardEvicted
	}
	return pn.mgr.Acquire(x.p, pn.st, op.Obj, op.Mode)
}

// runOps is the access phase: for each operation the process obtains the
// lock from the pinned manager guarding the object, performs the access
// at the object's data site, and returns home.
func (c *Cluster) runOps(x *txRun) error {
	m, t, home := c.mode, x.t, x.t.Home
	for _, op := range t.Ops {
		if c.faultsOn && c.crashed[home] {
			// The home site crashed while this process had a wake in
			// flight; it must not keep executing.
			return ErrSiteCrashed
		}
		data := home
		if !m.dataAtHome {
			data = c.Catalog.PrimarySite(op.Obj)
		}
		// The guarding pin: the manager asked by round trip, else the
		// one living at the data site.
		var lock *pin
		for i := range x.pins {
			if m.lockTrip || x.pins[i].site == data {
				lock = &x.pins[i]
				break
			}
		}
		if lock != nil && m.lockTrip {
			if err := c.hop(x, home, lock.site); err != nil {
				return err
			}
			if err := c.acquire(x, lock, op); err != nil {
				return err
			}
			if err := c.hop(x, lock.site, home); err != nil {
				return err
			}
		}
		if err := c.hop(x, home, data); err != nil {
			return err
		}
		prio := t.Priority()
		if lock != nil {
			if !m.lockTrip {
				if err := c.acquire(x, lock, op); err != nil {
					return err
				}
			}
			prio = lock.st.Eff()
		}
		if err := m.access(c, x, op, c.sites[data], prio); err != nil {
			return err
		}
		if err := c.hop(x, data, home); err != nil {
			return err
		}
		c.emit(home, journal.KOp, t.ID, int32(op.Obj), int64(op.Mode), 0, "")
		if err := m.afterOp(c, x, op, data); err != nil {
			return err
		}
	}
	return nil
}
