package dist

import (
	"errors"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// installPort is the message-server port replica updates arrive on.
const installPort = "install"

// errInstallTimeout aborts one installer attempt whose lock wait ran too
// long; the installer retries.
var errInstallTimeout = errors.New("dist: replica install attempt timed out")

// installMsg carries one committed transaction's updates to a secondary
// site. It owns them: the transaction's write set lives in its run's
// scratch, which a later transaction reuses while the message travels.
// The body and its writes are carved from the cluster's slabs.
type installMsg struct {
	origin   int64
	deadline sim.Time
	at       sim.Time // the commit's time, which every new version carries
	writes   []replicaWrite
}

// replicaWrite is one object's new version, by sequence number: its
// value is the origin's id and its time the commit's (see version).
type replicaWrite struct {
	obj core.ObjectID
	seq int64
}

// version is the version w installs.
func (m *installMsg) version(w replicaWrite) db.Version {
	return db.Version{Value: m.origin, WrittenAt: m.at, Seq: w.seq}
}

// installer is the process that applies one update at a secondary site.
// Installers are pooled: the install handler takes one per arriving
// update, and its process hands it back when install returns, by which
// time each attempt's state has left its manager and its timer is
// canceled. The process lives in the installer and is started on again
// by the next update to take it.
type installer struct {
	s    *site
	msg  *installMsg
	proc sim.Proc
	// objs is the update's write set, which the attempts register.
	objs []core.ObjectID
	// body is the process body and onPrio the attempts' priority-change
	// hook, both bound once per pooled installer.
	body   func(*sim.Proc)
	onPrio func(sim.Priority)
}

// newInstaller takes an installer from the pool (or builds one) for msg
// at site s.
func (c *Cluster) newInstaller(s *site, msg *installMsg) *installer {
	var in *installer
	if n := len(c.installers); n > 0 {
		in = c.installers[n-1]
		c.installers[n-1] = nil
		c.installers = c.installers[:n-1]
	} else {
		in = &installer{}
		in.body = func(*sim.Proc) {
			c.install(in)
			in.s, in.msg = nil, nil
			c.installers = append(c.installers, in)
		}
		in.onPrio = func(pr sim.Priority) { in.s.cpu.Reprioritize(&in.proc, pr) }
	}
	in.s, in.msg = s, msg
	in.objs = in.objs[:0]
	for _, w := range msg.writes {
		in.objs = append(in.objs, w.obj)
	}
	return in
}

// readSample records which version a read observed, for the temporal
// consistency classification.
type readSample struct {
	obj core.ObjectID
	seq int64
}

// readVersion resolves which version a read observes: the snapshot
// version under the multiversion scheme (falling back to the latest on
// a history miss), otherwise the replica's latest copy. Snapshot reads
// pin the view to a single instant old enough for propagation to have
// completed everywhere.
func (c *Cluster) readVersion(s *site, obj core.ObjectID, t *workload.Txn) readSample {
	if c.cfg.Multiversion && t.Kind == workload.ReadOnly {
		if v, ok := s.mv.AsOf(obj, t.Arrival.Add(-c.cfg.SnapshotLag)); ok {
			return readSample{obj: obj, seq: v.Seq}
		}
		// The snapshot predates every retained version. If version 1
		// is still retained (or nothing was ever written), the state
		// at the snapshot is the implicit zero version; otherwise the
		// needed version was evicted and the reader falls back to the
		// latest copy.
		if s.mv.FirstSeq(obj) <= 1 {
			return readSample{obj: obj, seq: 0}
		}
		c.repl.SnapshotMisses++
	}
	return readSample{obj: obj, seq: s.mv.Latest(obj).Seq}
}

// classifyView checks whether a committed read-only transaction's reads
// could all have been the newest versions at one instant, judged against
// the primary copies' version histories.
func (c *Cluster) classifyView(reads []readSample) {
	const (
		minTime = sim.Time(-1 << 62)
		maxTime = sim.Time(1<<62 - 1)
	)
	lo, hi := minTime, maxTime
	for _, r := range reads {
		primary := c.sites[c.Catalog.PrimarySite(r.obj)]
		start, end, known := primary.mv.Interval(r.obj, r.seq)
		if !known {
			c.repl.UnknownViews++
			return
		}
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
	}
	if lo < hi {
		c.repl.ConsistentViews++
	} else {
		c.repl.InconsistentViews++
	}
}

// sampleStaleness compares the local copy against the primary.
func (c *Cluster) sampleStaleness(s *site, obj core.ObjectID, now sim.Time) {
	c.repl.ReadSamples++
	primarySite := c.Catalog.PrimarySite(obj)
	if primarySite == s.id {
		return
	}
	primary := c.sites[primarySite].store.Read(obj)
	if lag := s.store.Staleness(obj, primary, now); lag > 0 {
		c.repl.StaleReads++
		c.repl.TotalLag += lag
	}
}

// registerInstallHandlers wires every site's message server to start an
// installer process per arriving update, named for the journal only.
func (c *Cluster) registerInstallHandlers() {
	for _, s := range c.sites {
		s := s
		c.Net.Server(s.id).Handle(installPort, func(m netsim.Message) {
			msg, ok := m.Payload.(*installMsg)
			if !ok {
				return
			}
			name := ""
			if c.K.Journal() != nil {
				name = s.installNames.Name(msg.origin)
			}
			in := c.newInstaller(s, msg)
			c.K.Start(&in.proc, name, in.body)
		})
	}
}

// install applies one replicated update at a secondary site. The
// installer synchronizes through the site's local ceiling manager with
// the originating transaction's (deadline-derived) priority, consuming
// apply CPU per object. Attempts that wait too long are timed out and
// retried; after the retry budget the update is dropped and counted —
// the copy stays at its previous version until a newer update lands,
// which the monotone Install tolerates.
func (c *Cluster) install(in *installer) {
	p, s, msg := &in.proc, in.s, in.msg
	c.installSeq++
	// Installer ids live far above transaction ids so priority
	// tie-breaks favor real transactions.
	id := int64(1)<<40 + c.installSeq
	prio := sim.Priority{Deadline: int64(msg.deadline), TxID: id}
	for attempt := 0; attempt < c.cfg.InstallRetries; attempt++ {
		if c.faultsOn && c.fault[s.id].crashed {
			return // the replica crashed; the update dies with it
		}
		// Pin the manager per attempt: a crash replaces it, and this
		// attempt's release must pair with its own registration.
		mgr := s.mgr
		st := c.states.Get(id, prio, p)
		st.WriteSet = in.objs
		st.OnPrioChange = in.onPrio
		c.emit(s.id, journal.KRegister, id, 0, int64(attempt), 0, "install")
		mgr.Register(st)
		timeout := c.K.AfterCall(c.cfg.InstallTimeout, interruptInstall, p)
		err := c.installBody(p, st, s, mgr, msg)
		timeout.Cancel()
		mgr.ReleaseAll(st)
		mgr.Unregister(st)
		// Released and unregistered whatever the outcome, the state has
		// left its manager: nothing else holds it.
		c.states.Put(st)
		c.emit(s.id, journal.KUnregister, id, 0, int64(attempt), 0, "install")
		switch {
		case err == nil:
			c.repl.Installs++
			c.twopcCounter("repl_installs_total", "Replica updates applied at secondary sites.").Inc()
			c.emit(s.id, journal.KInstall, msg.origin, 0, id, int64(attempt), "")
			return
		case errors.Is(err, sim.ErrShutdown):
			return
		case c.faultsOn && errors.Is(err, ErrSiteCrashed):
			return
		}
		if p.Sleep(c.cfg.InstallTimeout/4) != nil {
			return
		}
	}
	c.repl.InstallDrops++
	c.twopcCounter("repl_install_drops_total", "Replica updates dropped after exhausting retries.").Inc()
	c.emit(s.id, journal.KInstallDrop, msg.origin, 0, id, 0, "")
}

// interruptInstall is an installer attempt's timer.
func interruptInstall(p any) { p.(*sim.Proc).Interrupt(errInstallTimeout) }

func (c *Cluster) installBody(p *sim.Proc, st *core.TxState, s *site, mgr *core.Ceiling, msg *installMsg) error {
	for _, w := range msg.writes {
		if c.faultsOn && c.fault[s.id].crashed {
			return ErrSiteCrashed
		}
		if err := mgr.Acquire(p, st, w.obj, core.Write); err != nil {
			return err
		}
		if err := s.cpu.Use(p, st.Eff(), c.cfg.applyPerObj); err != nil {
			return err
		}
	}
	for _, w := range msg.writes {
		v := msg.version(w)
		s.store.Install(w.obj, v)
		s.mv.Install(w.obj, v)
	}
	return nil
}
