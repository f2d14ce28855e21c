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
	x    *txRun // the attempt the pin belongs to
}

// txRun is one transaction attempt on the pipeline. Runs are pooled:
// arrive takes one with newRun, and the run goes back once nothing can
// reach it any more (see doneWith).
type txRun struct {
	c *Cluster
	// proc is the attempt's process, started on again by the next
	// transaction to take the run from the pool.
	proc sim.Proc
	t    *workload.Txn
	// pins are the managers the attempt registers with, ascending by
	// site.
	pins   []pin
	sets   []core.ObjectID // the scratch the access sets are written into
	writes []core.ObjectID // the whole write set (nil in primary mode)
	views  []readSample    // the version each read observed (local mode)
	// msgs counts the inter-site messages the transaction caused. live
	// counts what still holds the run: exec until it returns, and each
	// pin until discharge hands its state back to the pool. A state
	// that never goes back (evicted, its release lost, its site
	// crashed) keeps the run out of the pool: a manager may still hold
	// the state, and with it onPrio and proc, whose Dead a recovery's
	// eviction reads. The two share a word, which keeps a run within
	// its allocation size class (768 B, with proc).
	msgs, live int32
	// body is the process body. onPrio wires the transaction's
	// priority inheritance to every site's processor (the process may
	// be queued at any of them while executing remotely); the states at
	// all its pins share it. Both are bound once per pooled run and
	// read proc.
	body   func(*sim.Proc)
	onPrio func(sim.Priority)
	// The attempt's reusable round state: its open quorum round, its
	// 2PC vote round, and the write order of its quorum commit.
	round quorumRound
	votes voteCollector
	order []core.ObjectID
	// pin0 and view0 back pins and views when the run is built: the
	// usual single pin and up to 16 read samples cost a new run no
	// allocation of their own.
	pin0  [1]pin
	view0 [16]readSample
}

// newRun takes a run from the pool (or builds one) for t.
func (c *Cluster) newRun(t *workload.Txn) *txRun {
	var x *txRun
	if n := len(c.runs); n > 0 {
		x = c.runs[n-1]
		c.runs[n-1] = nil
		c.runs = c.runs[:n-1]
	} else {
		x = &txRun{c: c}
		x.pins, x.views = x.pin0[:0], x.view0[:0]
		x.body = func(*sim.Proc) { c.exec(x) }
		x.onPrio = func(pr sim.Priority) {
			for _, s := range c.sites {
				s.cpu.Reprioritize(&x.proc, pr)
			}
		}
	}
	x.t, x.msgs, x.live = t, 0, 1
	x.pins, x.writes, x.views = x.pins[:0], nil, x.views[:0]
	return x
}

// accessSets writes the transaction's access sets into the run's
// scratch (see workload.Txn.AccessSets) and keeps the write set.
func (x *txRun) accessSets(cat *db.Catalog) (reads []core.ObjectID) {
	x.sets = slices.Grow(x.sets[:0], x.t.Size())
	reads, x.writes = x.t.AccessSets(cat, x.sets)
	return reads
}

// doneWith drops one hold on x; the last one returns it to the pool.
func (c *Cluster) doneWith(x *txRun) {
	if x.live--; x.live == 0 {
		x.t = nil
		c.runs = append(c.runs, x)
	}
}

// newState builds the protocol state for one pin, from the pool. The
// pin holds x until discharge returns the state to the pool.
func (c *Cluster) newState(x *txRun, reads, writes []core.ObjectID) *core.TxState {
	x.live++
	st := c.states.Get(x.t.ID, x.t.Priority(), &x.proc)
	st.ReadSet, st.WriteSet, st.OnPrioChange = reads, writes, x.onPrio
	return st
}

// exec runs one transaction through the pipeline every mode shares:
// arrive, pin managers, register, arm the deadline, run the operations,
// commit, release, install, record. What a mode does differently is in
// its row of the mode table.
func (c *Cluster) exec(x *txRun) {
	p, t := &x.proc, x.t
	if c.faultsOn {
		c.fault[t.Home].liveTx[t.ID] = p
		defer delete(c.fault[t.Home].liveTx, t.ID)
	}
	m := c.mode
	rec := c.life.Arrive(t, t.Home)
	m.pin(c, x)
	c.atPins(x, enroll)
	deadline := c.life.Deadline(p, t)
	err := c.runOps(x)
	if err == nil {
		err = m.commit(c, x)
	}
	deadline.Cancel()
	// Sum the blocking before discharge can hand a state back.
	for i := range x.pins {
		rec.Blocked += x.pins[i].st.BlockedTime
		rec.BlockedCount += x.pins[i].st.BlockedCount
	}
	// Killed with its home site, the transaction has nothing to release:
	// the managers there are gone, and the surviving ones evicted the
	// registration on detecting the crash.
	if !c.faultsOn || !errors.Is(err, ErrSiteCrashed) {
		c.atPins(x, discharge)
		if err == nil {
			m.install(c, x)
		}
	}
	rec.Messages = int(x.msgs)
	c.life.Finish(&rec, err)
	c.doneWith(x)
}

// atPins runs step at every pinned manager: at once at the home site,
// one message later at a remote one. The step is a static event
// handler taking the *pin, so sending it costs no allocation; it is
// one handler per step because both can travel toward the same pin (a
// release sent right behind a registration, after a deadline abort).
func (c *Cluster) atPins(x *txRun, step func(any)) {
	home := x.t.Home
	for i := range x.pins {
		pn := &x.pins[i]
		if pn.site == home {
			step(pn)
			continue
		}
		x.msgs++
		c.K.AfterCall(c.Net.Delay(home, pn.site), step, pn)
	}
}

// reached reports whether a step toward pn takes effect: at home always;
// at a remote pin, under faults, not if the message was lost on the way
// or the manager rebooted (a new lock table) while it traveled.
func (pn *pin) reached() bool {
	x := pn.x
	c, home := x.c, x.t.Home
	return pn.site == home || !c.faultsOn ||
		c.Net.Reachable(home, pn.site) && c.sites[pn.site].mgr == pn.mgr
}

// enroll announces the transaction (its access sets feed the ceilings)
// to a pinned manager. A remote registration is in effect before the
// first lock request arrives there: the request travels the same link.
func enroll(a any) {
	pn := a.(*pin)
	if !pn.reached() {
		return
	}
	x := pn.x
	c := x.c
	c.emit(pn.site, journal.KRegister, x.t.ID, 0, 0, 0, "")
	pn.mgr.Register(pn.st)
	// A crash must be able to find the registrations that outlive the
	// crashed site's own state: those at another site's manager, and any
	// at the global manager, whose table survives its site's crash.
	if c.faultsOn && (pn.site != x.t.Home || pn.mgr == c.gcm) {
		if c.fault[pn.site].reg == nil {
			c.fault[pn.site].reg = make(map[int64]regEntry)
		}
		c.fault[pn.site].reg[x.t.ID] = regEntry{pin: *pn, home: x.t.Home}
	}
}

// discharge releases and unregisters at a pinned manager after the
// outcome, and hands the state back to the pool. It is the only place a
// state goes back: a registration a crash evicted, or one whose release
// was lost, keeps its state, so Registered (which tests by pointer)
// never mistakes another transaction's state for it. The locks stay
// held while a remote release travels — the cost the paper attributes
// to holding locks across the network — and a lost one is reclaimed by
// crash eviction or the global manager's resync.
func discharge(a any) {
	pn := a.(*pin)
	if !pn.reached() {
		return
	}
	x := pn.x
	c := x.c
	if c.faultsOn && !pn.mgr.Registered(pn.st) {
		return // the registration was lost, or evicted meanwhile: nothing to release
	}
	pn.mgr.ReleaseAll(pn.st)
	pn.mgr.Unregister(pn.st)
	c.emit(pn.site, journal.KUnregister, x.t.ID, 0, 0, 0, "")
	if c.faultsOn {
		delete(c.fault[pn.site].reg, x.t.ID)
	}
	c.states.Put(pn.st)
	c.doneWith(x)
}

// regEntry tracks one registration at a manager so a crash can evict it.
type regEntry struct {
	pin
	home db.SiteID
}

// evict releases the registrations tracked at site that gone selects, in
// transaction-id order, and reports how many there were.
func (c *Cluster) evict(site db.SiteID, gone func(regEntry) bool) int {
	n, reg := 0, c.fault[site].reg
	for _, id := range sortedIDs(reg) {
		if e := reg[id]; gone(e) {
			e.mgr.ReleaseAll(e.st)
			e.mgr.Unregister(e.st)
			delete(reg, id)
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
	return c.Net.Hop(&x.proc, from, to)
}

// acquire asks a pinned manager, on site, for op's lock.
func (c *Cluster) acquire(x *txRun, pn *pin, op workload.Op) error {
	if c.faultsOn && (c.sites[pn.site].mgr != pn.mgr || !pn.mgr.Registered(pn.st)) {
		// The manager restarted (dropping its lock table) or never got
		// the registration: it refuses a transaction it does not know.
		return ErrShardEvicted
	}
	return pn.mgr.Acquire(&x.proc, pn.st, op.Obj, op.Mode)
}

// runOps is the access phase: for each operation the process obtains the
// lock from the pinned manager guarding the object, performs the access
// at the object's data site, and returns home.
func (c *Cluster) runOps(x *txRun) error {
	m, t, home := c.mode, x.t, x.t.Home
	for _, op := range t.Ops {
		if c.faultsOn && c.fault[home].crashed {
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
