package txn

import (
	"errors"
	"strconv"

	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/timeline"
	"rtlock/internal/workload"
)

// Lifecycle is the part of a transaction's life outside its attempts,
// shared by the single-site System and dist's Cluster: the arrival
// chain, the in-flight count, the deadline timer, and the outcome — its
// journal record, lifecycle counters, Monitor record and timeline entry.
// An engine passes in what differs: the body its transaction processes
// run, its per-arrival action, and a miss reason beyond the deadline.
type Lifecycle struct {
	Monitor *stats.Monitor

	k    *sim.Kernel
	tl   *timeline.Collector
	body func(*sim.Proc, *workload.Txn)
	// pending counts transactions from the moment their arrival is
	// scheduled until their outcome is recorded.
	pending int
	// deadline also takes every miss other does not claim.
	deadline, other miss

	mInflight sim.Gauge
	mCommits  sim.Counter
}

// miss is one reason a transaction misses: the error that says so, the
// note on its KDeadlineMiss record, and its counter.
type miss struct {
	err  error
	note string
	n    sim.Counter
}

const missHelp = "Transactions aborted at their deadline."

// NewLifecycle registers the lifecycle series on k's registry and builds
// the run's Monitor, retaining at most maxRaw raw records (0 keeps
// every one). body runs each transaction in the process Spawn starts.
// An engine keeps the Lifecycle by value and uses it in place.
func NewLifecycle(k *sim.Kernel, tl *timeline.Collector, maxRaw int, body func(*sim.Proc, *workload.Txn)) Lifecycle {
	l := Lifecycle{Monitor: stats.NewMonitor(), k: k, tl: tl, body: body}
	l.Monitor.SetMaxRaw(maxRaw)
	m := k.Metrics()
	l.mInflight = m.Gauge("txn_inflight", "Transactions between arrival and commit/abort.")
	l.mCommits = m.Counter("txn_commits_total", "Transactions that committed by their deadline.")
	l.deadline = miss{n: m.Counter("txn_deadline_misses_total", missHelp, metrics.L("reason", "deadline"))}
	return l
}

// MissReason registers the miss reason beyond the deadline: a
// transaction ending with an error that wraps err is counted under
// reason, which its KDeadlineMiss record carries as the note.
func (l *Lifecycle) MissReason(err error, reason string) {
	l.other = miss{err, reason, l.k.Metrics().Counter("txn_deadline_misses_total", missHelp, metrics.L("reason", reason))}
}

// Load reserves the Monitor's records and n event sequence numbers and
// starts the arrival chain over next: each arrival event pulls and
// schedules the following transaction, then calls arrive, so the event
// heap holds one pending arrival however long the load is. The reserved
// numbers fire every arrival among simultaneous events exactly where
// scheduling the whole load up front would have.
func (l *Lifecycle) Load(n int, next func() *workload.Txn, arrive func(*workload.Txn)) {
	l.Monitor.Reserve(n)
	(&arrivals{l: l, next: next, arrive: arrive, seqs: l.k.ReserveSeq(n)}).schedule()
}

// arrivals is one load's arrival chain. Each arrival event captures it
// as one pointer, which keeps the closure in a smaller size class.
type arrivals struct {
	l      *Lifecycle
	next   func() *workload.Txn
	arrive func(*workload.Txn)
	seqs   sim.SeqBlock
}

// schedule pulls one transaction and registers its arrival. It is
// pending from here, not from when the arrival fires.
func (a *arrivals) schedule() {
	t := a.next()
	if t == nil {
		return
	}
	a.l.pending++
	a.seqs.At(t.Arrival, func() {
		a.schedule()
		a.arrive(t)
	})
}

// Spawn starts t's process, which runs the body while t counts as in
// flight.
func (l *Lifecycle) Spawn(t *workload.Txn) {
	// "tx" + FormatInt keeps the KSpawn journal bytes identical to the
	// old Sprintf("tx%d") while skipping the fmt machinery.
	l.k.Spawn("tx"+strconv.FormatInt(t.ID, 10), func(p *sim.Proc) {
		l.mInflight.Add(1)
		defer l.mInflight.Add(-1)
		l.body(p, t)
	})
}

// Arrive journals t's arrival at site and opens its record.
func (l *Lifecycle) Arrive(t *workload.Txn, site db.SiteID) stats.TxRecord {
	l.emit(site, journal.KArrive, t.ID, int64(t.Deadline), "")
	return stats.TxRecord{ID: t.ID, Site: site, Size: t.Size(), ReadOnly: t.Kind == workload.ReadOnly,
		Arrival: l.k.Now(), Start: l.k.Now(), Deadline: t.Deadline}
}

// Deadline arms t's deadline timer: at t.Deadline, p is interrupted
// with ErrDeadlineMissed. The caller cancels it when t ends first.
func (l *Lifecycle) Deadline(p *sim.Proc, t *workload.Txn) sim.EventRef {
	return l.k.AtCall(t.Deadline, missDeadline, p)
}

func missDeadline(p any) { p.(*sim.Proc).Interrupt(ErrDeadlineMissed) }

// Finish records the transaction rec describes as ending with err. nil
// commits; sim.ErrShutdown, the simulation torn down, records nothing;
// any other error is a miss under the other reason if it wraps that
// reason's error, else a deadline miss. The journal record is at rec.Site.
func (l *Lifecycle) Finish(rec *stats.TxRecord, err error) {
	l.pending--
	if errors.Is(err, sim.ErrShutdown) {
		return
	}
	rec.Finish = l.k.Now()
	if err == nil {
		rec.Outcome = stats.Committed
		l.mCommits.Inc()
		l.emit(rec.Site, journal.KCommit, rec.ID, 0, "")
	} else {
		rec.Outcome = stats.DeadlineMissed
		m := l.deadline
		if errors.Is(err, l.other.err) {
			m = l.other
		}
		m.n.Inc()
		l.emit(rec.Site, journal.KDeadlineMiss, rec.ID, 0, m.note)
	}
	l.Monitor.Add(*rec)
	l.tl.Tx(rec.Finish, err == nil, rec.Finish.Sub(rec.Arrival), rec.Restarts)
}

func (l *Lifecycle) emit(site db.SiteID, kind journal.Kind, tx, a int64, note string) {
	l.k.Journal().Append(int64(l.k.Now()), kind, int32(site), tx, 0, a, 0, note)
}
