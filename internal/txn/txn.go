// Package txn is the transaction manager: it turns generated workload
// transactions into simulated processes that register with a locking
// protocol, acquire locks operation by operation, consume CPU and I/O,
// and commit — or are aborted the instant their hard deadline expires,
// wherever they are (waiting for a lock, on the CPU, in I/O). Aborted
// transactions release their locks and disappear from the system, per
// the paper's hard-transaction model.
package txn

import (
	"errors"
	"fmt"
	"strconv"

	"rtlock/internal/buffer"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/timeline"
	"rtlock/internal/wal"
	"rtlock/internal/workload"
)

// ErrDeadlineMissed aborts a transaction whose deadline expired.
var ErrDeadlineMissed = errors.New("txn: deadline missed")

// The write-ahead log's CPU costs: the commit-record force per written
// object, and the checkpoint snapshot per stored object.
const (
	logWritePerObj   = sim.Millisecond
	checkpointPerObj = sim.Millisecond / 10
)

// Config parameterizes a single-site system.
type Config struct {
	// CPUPerObj is the CPU service demand per object accessed.
	CPUPerObj sim.Duration
	// IOPerObj is the I/O time per object accessed. I/O is modeled as
	// a pure delay ("parallel I/O processing" per §3.3); zero gives the
	// memory-resident database of the distributed experiments.
	IOPerObj sim.Duration
	// CPUDiscipline selects the processor scheduler; protocol L runs
	// FIFO, protocols P and C run preemptive priority.
	CPUDiscipline sim.Discipline
	// NewManager constructs the concurrency-control protocol under
	// test.
	NewManager func(*sim.Kernel) core.Manager
	// RestartDelay spaces restart attempts of abort-based protocols
	// (High-Priority wounding, timestamp ordering, deadlock
	// detection). Zero retries immediately.
	RestartDelay sim.Duration
	// Journal, when non-nil, receives the machine-checkable replay
	// journal: every kernel, lock-manager, and transaction lifecycle
	// event, in deterministic order. Its observers (internal/audit's
	// auditors, the stats.Trace event log) consume it.
	Journal *journal.Journal
	// BufferPages sizes the LRU object buffer: accesses that hit skip
	// the I/O delay. Zero disables buffering (every access pays I/O),
	// which is the calibrated experiments' behavior.
	BufferPages int
	// IODisks bounds I/O parallelism: misses queue FIFO for one of
	// this many disks. Zero keeps the paper's parallel-I/O assumption
	// (unbounded).
	IODisks int
	// LockOverhead is the CPU cost of each lock operation (the
	// protocol bookkeeping the paper's environment executes in the
	// resource manager). Zero models free lock management.
	LockOverhead sim.Duration
	// WAL enables the redo-only write-ahead log: every update
	// transaction forces a commit record (costing logWritePerObj of
	// CPU per written object) before its writes become visible, and a
	// checkpointer snapshots the committed state every CheckpointEvery
	// (costing checkpointPerObj per stored object at top priority).
	WAL bool
	// CheckpointEvery spaces checkpoints (zero disables the
	// checkpointer; the redo tail then grows unboundedly).
	CheckpointEvery sim.Duration
	// Timeline, when non-nil, is the run's one time-series store: it
	// receives every finished transaction, the kernel closes its
	// windows, and its probe registry — the exported one when the run
	// exports metrics, see timeline.New — receives virtual-time metric
	// series from every layer. Neither touches the journal, so journals
	// are byte-identical with or without it.
	Timeline *timeline.Collector
	// MaxRawRecords caps the Monitor's raw TxRecord retention (0 keeps
	// every record); the streaming aggregates are exact either way.
	MaxRawRecords int
}

// System is a single-site real-time database system instance: one
// processor, one lock manager, one store, and a performance monitor.
type System struct {
	K       *sim.Kernel
	CPU     *sim.CPU
	Mgr     core.Manager
	Store   *db.Store
	Monitor *stats.Monitor
	Buffer  *buffer.Pool
	IO      *sim.Station
	Log     *wal.Log

	cfg       Config
	remaining int

	// freeTx recycles per-attempt transaction states: an attempt's
	// state fully leaves the manager before the next attempt starts
	// (strict two-phase release plus Unregister), and the kernel's
	// single-runner discipline serializes all attempt loops, so a plain
	// freelist suffices.
	freeTx []*core.TxState

	mInflight sim.Gauge
	mCommits  sim.Counter
	mMissDead sim.Counter
	mRestarts sim.Counter
}

// getTxState hands out a reset transaction state from the pool.
func (s *System) getTxState(id int64, base sim.Priority, p *sim.Proc) *core.TxState {
	if n := len(s.freeTx); n > 0 {
		st := s.freeTx[n-1]
		s.freeTx[n-1] = nil
		s.freeTx = s.freeTx[:n-1]
		st.ResetFor(id, base, p)
		return st
	}
	return core.NewTxState(id, base, p)
}

func (s *System) putTxState(st *core.TxState) { s.freeTx = append(s.freeTx, st) }

// NewSystem assembles a system from the configuration.
func NewSystem(cfg Config) (*System, error) {
	if cfg.NewManager == nil {
		return nil, errors.New("txn: Config.NewManager is required")
	}
	if cfg.CPUPerObj <= 0 {
		return nil, fmt.Errorf("txn: CPUPerObj must be positive, got %d", cfg.CPUPerObj)
	}
	if cfg.CPUDiscipline == 0 {
		cfg.CPUDiscipline = sim.PreemptivePriority
	}
	k := sim.NewKernel()
	k.SetJournal(cfg.Journal, 0)
	// Attach the registry before the CPU and I/O station are built:
	// their constructors cache probe handles from it.
	k.SetMetrics(cfg.Timeline.Probes())
	k.SetWindows(cfg.Timeline.Window(), cfg.Timeline)
	s := &System{
		K:       k,
		CPU:     sim.NewCPU(k, cfg.CPUDiscipline),
		Mgr:     cfg.NewManager(k),
		Store:   db.NewStore(0),
		Monitor: stats.NewMonitor(),
		Buffer:  buffer.New(cfg.BufferPages),
		IO:      sim.NewStation(k, cfg.IODisks),
		cfg:     cfg,
	}
	s.Monitor.SetMaxRaw(cfg.MaxRawRecords)
	m := k.Metrics()
	s.mInflight = m.Gauge("txn_inflight", "Transactions between arrival and commit/abort.")
	s.mCommits = m.Counter("txn_commits_total", "Transactions that committed by their deadline.")
	s.mMissDead = m.Counter("txn_deadline_misses_total", "Transactions aborted at their deadline.", metrics.L("reason", "deadline"))
	s.mRestarts = m.Counter("txn_restarts_total", "Attempt restarts (wounds, deadlock victims, conditional aborts).")
	if cfg.WAL {
		s.Log = wal.NewLog()
	}
	return s, nil
}

// Load schedules the transactions' arrivals and, with a write-ahead log
// configured, the checkpointer. It is LoadStream over the slice.
func (s *System) Load(txs []*workload.Txn) {
	s.load(len(txs), workload.Pull(txs))
}

// LoadStream schedules arrivals one at a time: each arrival event pulls
// the next transaction from the stream and schedules it before spawning
// its own worker, so the event heap and live transaction set stay
// bounded no matter how long the load is. Arrivals take sequence numbers
// reserved up front, so they fire among simultaneous events exactly as a
// load scheduled all at once would.
func (s *System) LoadStream(src *workload.Stream) {
	s.load(src.Remaining(), src.Next)
}

// arrivals is one load's arrival chain: where its transactions come
// from and the sequence numbers their arrivals fire under. Each arrival
// event captures it as one pointer, which keeps the closure in a
// smaller size class.
type arrivals struct {
	next func() *workload.Txn
	seqs sim.SeqBlock
}

// load reserves the monitor's records and the arrivals' sequence numbers
// for n transactions and starts the arrival chain over next.
func (s *System) load(n int, next func() *workload.Txn) {
	s.Monitor.Reserve(n)
	s.scheduleNext(&arrivals{next: next, seqs: s.K.ReserveSeq(n)})
	if s.Log != nil && s.cfg.CheckpointEvery > 0 {
		s.K.Spawn("checkpointer", s.checkpointer)
	}
}

// scheduleNext pulls one transaction and registers its arrival.
// remaining is incremented at schedule time, before the previous
// transaction can finish, so the checkpointer's remaining==0 exit never
// fires while an arrival is still pending.
func (s *System) scheduleNext(a *arrivals) {
	t := a.next()
	if t == nil {
		return
	}
	s.remaining++
	a.seqs.At(t.Arrival, func() {
		s.scheduleNext(a)
		// "tx" + FormatInt keeps the KSpawn journal bytes identical to
		// the old Sprintf("tx%d") while skipping the fmt machinery.
		s.K.Spawn("tx"+strconv.FormatInt(t.ID, 10), func(p *sim.Proc) {
			s.exec(p, t)
			s.remaining--
		})
	})
}

// checkpointer periodically snapshots the committed state into the log,
// consuming CPU at top priority (the snapshot stalls lower-priority
// work, which is the cost side of the recovery trade-off). It exits once
// no transactions remain so the simulation can drain.
func (s *System) checkpointer(p *sim.Proc) {
	for {
		if err := p.Sleep(s.cfg.CheckpointEvery); err != nil {
			return
		}
		if s.remaining == 0 {
			return
		}
		state := s.Store.State()
		cost := sim.Duration(len(state)) * checkpointPerObj
		if err := s.CPU.Use(p, sim.MaxPriority, cost); err != nil {
			return
		}
		s.Log.Checkpoint(p.Now(), s.Store.State())
	}
}

// Run drives the simulation to completion and returns the summary.
func (s *System) Run() stats.Summary {
	s.K.Run()
	sum := s.Monitor.Summarize()
	if h := s.Monitor.Horizon(); h > 0 {
		horizon := sim.Duration(h).Seconds()
		sum.CPUUtil = s.CPU.Busy().Seconds() / horizon
		servers := s.IO.Servers()
		if servers == 0 {
			servers = 1 // unbounded I/O: report offered load per notional disk
		}
		sum.IOUtil = s.IO.Busy().Seconds() / (horizon * float64(servers))
	}
	return sum
}

// exec runs one transaction to commit or deadline abort, restarting
// attempts that abort-based protocols reject.
func (s *System) exec(p *sim.Proc, t *workload.Txn) {
	rec := stats.TxRecord{
		ID:       t.ID,
		Site:     0,
		Size:     t.Size(),
		ReadOnly: t.Kind == workload.ReadOnly,
		Arrival:  p.Now(),
		Start:    p.Now(),
		Deadline: t.Deadline,
	}
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)
	deadlineEv := s.K.At(t.Deadline, func() { p.Interrupt(ErrDeadlineMissed) })
	s.K.Emit(journal.KArrive, t.ID, 0, int64(t.Deadline), 0, "")

	var err error
	// The access sets and priority-change hook are attempt-invariant;
	// computing them once per transaction keeps restarts allocation-free
	// (managers only read the sets, never mutate them).
	readSet := t.ReadSet()
	writeSet := t.WriteSet()
	estimate := sim.Duration(t.Size()) * (s.cfg.CPUPerObj + s.cfg.IOPerObj)
	onPrio := func(pr sim.Priority) {
		s.K.Emit(journal.KInherit, t.ID, 0, pr.Deadline, pr.TxID, "")
		s.CPU.Reprioritize(p, pr)
	}
	for {
		st := s.getTxState(t.ID, t.Priority(), p)
		st.ReadSet = readSet
		st.WriteSet = writeSet
		st.Estimate = estimate
		st.OnPrioChange = onPrio

		s.K.Emit(journal.KRegister, t.ID, 0, 0, 0, "")
		s.Mgr.Register(st)
		err = s.body(p, st, t)
		if err == nil && s.Log != nil && len(st.WriteSet) > 0 {
			// Write-ahead: force the commit record while still
			// holding the write locks, before the writes become
			// visible. An interruption here (deadline, wound)
			// aborts the attempt with no record and no visible
			// writes.
			force := sim.Duration(len(st.WriteSet)) * logWritePerObj
			if err = s.CPU.Use(p, st.Eff(), force); err == nil {
				images := make([]wal.WriteImage, 0, len(st.WriteSet))
				for _, obj := range st.WriteSet {
					images = append(images, wal.WriteImage{Obj: obj, Value: t.ID})
				}
				s.Log.AppendCommit(t.ID, p.Now(), images)
			}
		}
		s.Mgr.ReleaseAll(st)
		s.Mgr.Unregister(st)
		s.K.Emit(journal.KUnregister, t.ID, 0, 0, 0, "")
		rec.Blocked += st.BlockedTime
		rec.BlockedCount += st.BlockedCount
		s.putTxState(st)

		if !errors.Is(err, core.ErrRestart) {
			break
		}
		s.K.Emit(journal.KRestart, t.ID, 0, int64(rec.Restarts), 0, "")
		s.mRestarts.Inc()
		rec.Restarts++
		if s.cfg.RestartDelay > 0 {
			if err = p.Sleep(s.cfg.RestartDelay); err != nil {
				break
			}
		}
	}
	deadlineEv.Cancel()

	if errors.Is(err, sim.ErrShutdown) {
		return // simulation torn down; nothing to record
	}
	rec.Finish = p.Now()
	switch {
	case err == nil:
		s.K.Emit(journal.KCommit, t.ID, 0, 0, 0, "")
		s.mCommits.Inc()
		rec.Outcome = stats.Committed
		for _, obj := range writeSet {
			s.Store.Write(obj, t.ID, p.Now())
		}
	case errors.Is(err, ErrDeadlineMissed):
		s.K.Emit(journal.KDeadlineMiss, t.ID, 0, 0, 0, "")
		s.mMissDead.Inc()
		rec.Outcome = stats.DeadlineMissed
	default:
		// Unexpected protocol error: surface it as a miss but keep
		// the record so it is visible in reports.
		rec.Outcome = stats.DeadlineMissed
	}
	s.Monitor.Add(rec)
	s.cfg.Timeline.Tx(rec.Finish, rec.Outcome == stats.Committed,
		rec.Finish.Sub(rec.Arrival), rec.Restarts)
}

// body performs the access sequence: lock (or timestamp validation),
// then CPU, then I/O per object. A pending wound that missed its
// interrupt window is honored at the next step boundary.
func (s *System) body(p *sim.Proc, st *core.TxState, t *workload.Txn) error {
	for _, op := range t.Ops {
		if w := st.Wounded(); w != nil {
			return w
		}
		if s.cfg.LockOverhead > 0 {
			if err := s.CPU.Use(p, st.Eff(), s.cfg.LockOverhead); err != nil {
				return err
			}
		}
		if err := s.Mgr.Acquire(p, st, op.Obj, op.Mode); err != nil {
			return err
		}
		s.K.Emit(journal.KOp, t.ID, int32(op.Obj), int64(op.Mode), 0, "")
		if err := s.CPU.Use(p, st.Eff(), s.cfg.CPUPerObj); err != nil {
			return err
		}
		if s.cfg.IOPerObj > 0 && !s.Buffer.Access(op.Obj) {
			if err := s.IO.Serve(p, s.cfg.IOPerObj); err != nil {
				return err
			}
		}
	}
	if w := st.Wounded(); w != nil {
		return w
	}
	return nil
}
