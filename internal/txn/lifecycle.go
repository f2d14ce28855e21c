package txn

import (
	"errors"

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
// An engine passes in what differs: its per-arrival action, the body its
// transaction processes run, and a miss reason beyond the deadline.
type Lifecycle struct {
	Monitor *stats.Monitor

	k  *sim.Kernel
	tl *timeline.Collector
	// arrive is the engine's per-arrival action, bound once. names are
	// the transactions' journal-only process names. Both are kept
	// across Reset.
	arrive func(*workload.Txn)
	names  Names
	// arr is the arrival chain of the load, set afresh by each load.
	arr arrivals
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
// the run's Monitor, which keeps every raw record until a Reset says
// otherwise; each arrival of a load calls arrive. An engine keeps the
// Lifecycle by value and uses it in place.
func NewLifecycle(k *sim.Kernel, arrive func(*workload.Txn)) Lifecycle {
	l := Lifecycle{Monitor: stats.NewMonitor(), k: k, arrive: arrive, names: NewNames("tx", "")}
	l.Reset(nil, 0)
	return l
}

// Reset returns the lifecycle to the state NewLifecycle leaves it in,
// with tl as the timeline and at most maxRaw raw records retained (0
// keeps every one), keeping its Monitor (emptied), its arrival action,
// its process names and kernel, whose registry it takes the series from
// afresh. A miss reason beyond the deadline is registered again after
// it.
func (l *Lifecycle) Reset(tl *timeline.Collector, maxRaw int) {
	*l = Lifecycle{Monitor: l.Monitor, k: l.k, tl: tl, arrive: l.arrive, names: l.names}
	l.Monitor.Reset(maxRaw)
	m := l.k.Metrics()
	l.mInflight = m.Gauge("txn_inflight", "Transactions between arrival and commit/abort.")
	l.mCommits = m.Counter("txn_commits_total", "Transactions that committed by their deadline.")
	l.deadline = miss{n: m.Counter("txn_deadline_misses_total", missHelp, metrics.L("reason", "deadline"))}
}

// MissReason registers the miss reason beyond the deadline: a
// transaction ending with an error that wraps err is counted under
// reason, which its KDeadlineMiss record carries as the note.
func (l *Lifecycle) MissReason(err error, reason string) {
	l.other = miss{err, reason, l.k.Metrics().Counter("txn_deadline_misses_total", missHelp, metrics.L("reason", reason))}
}

// Load reserves the Monitor's records and len(txs) event sequence
// numbers and starts the arrival chain over txs, handed out by index
// in arrival order (see workload.InArrivalOrder): each arrival event
// takes and schedules the following transaction, then calls the
// engine's arrive, so the event heap holds one pending arrival however
// long the load is. The reserved numbers fire every arrival among
// simultaneous events exactly where scheduling the whole load up front
// would have. A run takes one load.
func (l *Lifecycle) Load(txs []*workload.Txn) {
	l.load(len(txs), arrivals{txs: workload.InArrivalOrder(txs)})
}

// LoadStream is Load over a stream, pulled one arrival at a time, so
// memory stays bounded however long the load is.
func (l *Lifecycle) LoadStream(src *workload.Stream) {
	l.load(src.Remaining(), arrivals{src: src})
}

// load makes a the lifecycle's chain, in place, so a load allocates
// nothing. A second load in one run would cut the first one's chain.
func (l *Lifecycle) load(n int, a arrivals) {
	if l.arr.l != nil {
		panic("txn: a second load before Reset")
	}
	l.Monitor.Reserve(n)
	l.arr = a
	l.arr.l = l
	l.arr.seqs = l.k.ReserveSeq(n)
	l.arr.schedule()
}

// arrivals is one load's arrival chain. Every arrival event is the same
// static handler with the chain as its argument, and the chain holds the
// one transaction whose arrival is pending, so an arrival allocates
// nothing. A preloaded load is the slice txs, of which the first i have
// been taken; a streamed one is pulled from src.
type arrivals struct {
	l    *Lifecycle
	txs  []*workload.Txn
	i    int
	src  *workload.Stream
	seqs sim.SeqBlock
	due  *workload.Txn
}

// take returns the next transaction of the load, nil past its end.
func (a *arrivals) take() *workload.Txn {
	if a.src != nil {
		return a.src.Next()
	}
	if a.i == len(a.txs) {
		return nil
	}
	a.i++
	return a.txs[a.i-1]
}

// schedule takes one transaction and registers its arrival. It is
// pending from here, not from when the arrival fires.
func (a *arrivals) schedule() {
	t := a.take()
	if t == nil {
		return
	}
	a.l.pending++
	a.due = t
	a.seqs.AtCall(t.Arrival, fireArrival, a)
}

// fireArrival is the arrival event: it schedules the next arrival, then
// admits the one that is due.
func fireArrival(arg any) {
	a := arg.(*arrivals)
	t := a.due
	a.schedule()
	a.l.arrive(t)
}

// Spawn starts t's process on p, running body. An engine keeps p in a
// pooled run and binds body once per run, so the spawn allocates
// nothing; the process's name, "tx" and the id, is taken from the
// lifecycle's Names only for the journal's KSpawn record.
func (l *Lifecycle) Spawn(p *sim.Proc, t *workload.Txn, body func(*sim.Proc)) {
	name := ""
	if l.k.Journal() != nil {
		name = l.names.Name(t.ID)
	}
	l.k.Start(p, name, body)
}

// Arrive journals t's arrival at site and opens its record; t counts as
// in flight until Finish.
func (l *Lifecycle) Arrive(t *workload.Txn, site db.SiteID) stats.TxRecord {
	l.mInflight.Add(1)
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
	l.mInflight.Add(-1)
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
