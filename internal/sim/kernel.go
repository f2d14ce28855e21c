package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rtlock/internal/journal"
	"rtlock/internal/metrics"
)

// Kernel errors delivered to parked processes.
var (
	// ErrShutdown wakes every parked process when the kernel shuts
	// down; process bodies should unwind promptly when they see it.
	ErrShutdown = errors.New("sim: kernel shutdown")
)

// Kernel is the discrete-event scheduler. It owns the virtual clock and
// the event heap, and it hands control to at most one simulated process
// at a time, so all simulation code runs single-threaded and every run
// with the same inputs produces the same interleaving.
//
// There is no kernel goroutine. The dispatch loop is run by whichever
// goroutine holds the baton: the caller of Run/RunUntil/Steps (the
// driver) to begin with, then whichever process parks or finishes its
// body. That goroutine pops and dispatches events itself until one names
// a process other than itself or the driver's bound is reached; only
// then does control move, with one channel send. Kernel state is touched
// by the baton holder alone, and every transfer is a channel operation,
// so the state needs no lock.
//
// A Kernel is not safe for concurrent use from multiple OS threads; all
// interaction happens either before Run or from inside event handlers
// and process bodies.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap

	// freeEvents and freeTokens recycle fired/discarded events and
	// consumed wait tokens. An Event is reachable from outside the
	// kernel only through generation-checked EventRefs, and a Token is
	// recycled only by the call site that owns its full lifecycle
	// (Sleep, CPU.Use), so reuse cannot alias live state. batch is the
	// reused chooseNext scratch.
	freeEvents []*Event
	freeTokens []*Token
	batch      []*Event

	// driver is where the goroutine inside Run/RunUntil/Steps waits
	// while a process goroutine holds the baton; horizon and budget are
	// the bound that call set, and whoever reaches it hands back. hooked
	// says the loop has more to do per event than pop it: a bound, a
	// chooser or telemetry windows (see popHooked); drive works it out on
	// entry, which is why both must be attached before the run starts. idle holds
	// the channels of workers (see work) whose body returned and that
	// passed the baton on; a process start draws from it.
	driver  chan *Proc
	horizon Time
	budget  int
	hooked  bool
	idle    []chan *Proc

	current *Proc
	parked  *Proc // head of the intrusive list of parked processes
	nextPID int64
	live    int

	// jrn, when set, receives process lifecycle records; jrnSite tags
	// them with the site this kernel simulates (0 single-site).
	jrn     *journal.Journal
	jrnSite int32

	// met, when set, feeds the kernel's probe handles. With a positive
	// sampleEvery the dispatch loop also has windows close one window
	// per sampleEvery of virtual time (plus one when the event heap
	// drains). The tick is driven by event timestamps, never by extra
	// scheduled events, so it cannot change the event interleaving or
	// the journal.
	met         *metrics.Registry
	sampleEvery Duration
	windows     WindowStore
	nextSample  Time
	flushedAt   Time
	// atClose: events ran at flushedAt after its boundary was closed.
	atClose bool

	// Kernel-owned probe handles (no-ops without a registry). The four
	// resume counters split process resumptions by how control arrived:
	// the parked process popped its own resume event (no goroutine
	// switch), another goroutine popped it (one channel send), a worker
	// whose body had returned ran the start on its own goroutine, or the
	// start was handed to an idle worker or a new goroutine.
	mEvents  Counter
	mProcs   Gauge
	mSpawns  Counter
	mSelf    Counter
	mHandoff Counter
	mAdopt   Counter
	mStart   Counter

	// chooser, when set, overrides scheduling decision points (see
	// choice.go); nil means canonical order.
	chooser Chooser
}

// Metric handle aliases, so subsystems in this package and its
// dependents can hold probe handles without importing metrics
// everywhere.
type (
	// Counter is a monotonically increasing metric handle.
	Counter = metrics.Counter
	// Gauge is an up/down metric handle.
	Gauge = metrics.Gauge
	// Histogram is a fixed-bucket distribution handle.
	Histogram = metrics.Histogram
)

// SetMetrics attaches a metrics registry for live probe values. It must
// be called before the subsystems whose constructors cache probe
// handles (CPU, stations, network) are built. A nil registry detaches.
func (k *Kernel) SetMetrics(m *metrics.Registry) {
	k.met = m
	k.mEvents = m.Counter("sim_events_total", "Kernel events dispatched.")
	k.mProcs = m.Gauge("sim_procs_live", "Simulated processes currently alive.")
	k.mSpawns = m.Counter("sim_procs_spawned_total", "Simulated processes spawned.")
	const resumes, help = "sim_resumes_total", "Process starts and resumptions by how control reached the process goroutine."
	k.mSelf = m.Counter(resumes, help, metrics.L("via", "self"))
	k.mHandoff = m.Counter(resumes, help, metrics.L("via", "handoff"))
	k.mAdopt = m.Counter(resumes, help, metrics.L("via", "adopt"))
	k.mStart = m.Counter(resumes, help, metrics.L("via", "start"))
}

// A WindowStore is a telemetry store whose windows the dispatch loop
// closes: internal/timeline's Collector, which this package cannot
// import.
type WindowStore interface {
	Close(end Time)
}

// SetWindows has the dispatch loop close one of w's windows per `every`
// of virtual time: w.Close(T) runs at each multiple T of every, before
// any event at T, and once more at the current time when the event heap
// drains, closing the partial last window. A non-positive every
// detaches. It must be called before the run starts.
func (k *Kernel) SetWindows(every Duration, w WindowStore) {
	if every <= 0 {
		k.sampleEvery, k.windows = 0, nil
		return
	}
	k.sampleEvery, k.windows = every, w
	k.nextSample = k.now.Add(every)
	k.flushedAt, k.atClose = -1, false
}

// Metrics returns the attached registry (nil when none). Probe sites
// call it once at construction; all registry methods are nil-safe.
func (k *Kernel) Metrics() *metrics.Registry { return k.met }

// sampleTo closes every due window strictly before advancing the clock
// to t: a window ending at T reflects the state after all events
// earlier than T and before any event at T.
func (k *Kernel) sampleTo(t Time) {
	for k.nextSample <= t {
		k.windows.Close(k.nextSample)
		k.flushedAt = k.nextSample
		k.nextSample = k.nextSample.Add(k.sampleEvery)
		k.atClose = k.flushedAt == t
	}
}

// flushSample closes the open window at the current time when the
// event heap drains, so short runs (and the tail beyond the last
// boundary) still appear in the time series — a run whose last events
// fell on the boundary closed last gets a zero-width row for them.
// Repeated drains at the same instant (Cluster.Run re-enters Run after
// shutdown) add nothing.
func (k *Kernel) flushSample() {
	if k.now > k.flushedAt || k.atClose {
		k.windows.Close(k.now)
		k.flushedAt, k.atClose = k.now, false
	}
}

// SetJournal attaches a replay journal to the kernel; process spawn and
// termination events are recorded to it, tagged with the given site id.
// A nil journal detaches.
func (k *Kernel) SetJournal(j *journal.Journal, site int32) {
	k.jrn = j
	k.jrnSite = site
}

// Journal returns the attached journal (nil when none).
func (k *Kernel) Journal() *journal.Journal { return k.jrn }

// Emit appends a record to the attached journal (a no-op when none) at
// the current virtual time, tagged with the kernel's site. Subsystems
// that hold a kernel reference use it instead of tracking the journal
// themselves.
func (k *Kernel) Emit(kind journal.Kind, tx int64, obj int32, a, b int64, note string) {
	k.jrn.Append(int64(k.now), kind, k.jrnSite, tx, obj, a, b, note)
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	// One slot: only the baton holder sends, and the receiver takes the
	// baton before anyone can send again, so a sender never blocks.
	return &Kernel{driver: make(chan *Proc, 1)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run in kernel context at virtual time t. Times in
// the past are clamped to now. The returned handle may be used to cancel.
func (k *Kernel) At(t Time, fn func()) EventRef {
	return k.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (k *Kernel) After(d Duration, fn func()) EventRef {
	return k.schedule(k.now.Add(d), fn, nil, nil)
}

// AtOptional is At for an event the run does not wait for: it fires
// only while other live events are pending. Once every pending event is
// optional, the run ends and they are discarded unfired, so an event
// that would do nothing cannot move the clock past the run's last real
// work.
func (k *Kernel) AtOptional(t Time, fn func()) EventRef {
	r := k.schedule(t, fn, nil, nil)
	r.e.optional = true
	return r
}

// AtCall is the allocation-free form of At: call(arg) runs at t. Hot
// sites use it because storing a pointer in an interface value does not
// allocate, while the equivalent capturing closure does.
func (k *Kernel) AtCall(t Time, call func(any), arg any) EventRef {
	return k.schedule(t, nil, call, arg)
}

// AfterCall is the allocation-free form of After.
func (k *Kernel) AfterCall(d Duration, call func(any), arg any) EventRef {
	return k.schedule(k.now.Add(d), nil, call, arg)
}

// SeqBlock is a run of event sequence numbers set aside by ReserveSeq.
type SeqBlock struct {
	k         *Kernel
	next, end uint64
}

// ReserveSeq sets aside the next n event sequence numbers. An event
// scheduled through the block takes the next of them, so among
// simultaneous events it fires where it would have, had it been
// scheduled at the reservation: a loader can keep one arrival pending
// at a time and still fire every arrival exactly as scheduling the
// whole load up front would.
func (k *Kernel) ReserveSeq(n int) SeqBlock {
	b := SeqBlock{k: k, next: k.seq + 1, end: k.seq + uint64(n)}
	k.seq = b.end
	return b
}

// At schedules fn to run at virtual time t, clamped to now, under the
// block's next sequence number. It panics once all n are used.
func (b *SeqBlock) At(t Time, fn func()) EventRef {
	if b.next > b.end {
		panic("sim: sequence block used up")
	}
	b.next++
	return b.k.scheduleSeq(t, b.next-1, fn, nil, nil)
}

func (k *Kernel) schedule(t Time, fn func(), call func(any), arg any) EventRef {
	k.seq++
	return k.scheduleSeq(t, k.seq, fn, call, arg)
}

func (k *Kernel) scheduleSeq(t Time, seq uint64, fn func(), call func(any), arg any) EventRef {
	if t < k.now {
		t = k.now
	}
	var e *Event
	if n := len(k.freeEvents); n > 0 {
		e = k.freeEvents[n-1]
		k.freeEvents[n-1] = nil
		k.freeEvents = k.freeEvents[:n-1]
	} else {
		e = &Event{}
	}
	e.at = t
	e.seq = seq
	e.fn = fn
	e.call = call
	e.arg = arg
	k.events.push(e)
	return EventRef{e: e, gen: e.gen}
}

// recycle returns a fired or discarded event to the pool. Bumping the
// generation first invalidates every outstanding EventRef to it.
func (k *Kernel) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.call = nil
	e.arg = nil
	e.proc = nil
	e.canceled = false
	e.optional = false
	e.idx = -1
	k.freeEvents = append(k.freeEvents, e)
}

// peekEvent returns the earliest pending event without removing it,
// recycling canceled events as it goes; nil when exhausted.
func (k *Kernel) peekEvent() *Event {
	for {
		e := k.events.min()
		if e == nil {
			return nil
		}
		if !e.canceled {
			return e
		}
		k.events.popMin()
		k.recycle(e)
	}
}

// dropIfOnlyOptional reports whether every live pending event is
// optional and, if so, discards them all, ending the run.
func (k *Kernel) dropIfOnlyOptional() bool {
	for _, e := range k.events.s {
		if !e.canceled && !e.optional {
			return false
		}
	}
	for e := k.events.popMin(); e != nil; e = k.events.popMin() {
		k.recycle(e)
	}
	return true
}

// scheduleProc schedules control to move into p at the current time: its
// start if it has not run yet, otherwise its resumption from Park.
func (k *Kernel) scheduleProc(p *Proc) {
	k.schedule(k.now, nil, nil, nil).e.proc = p
}

// run is the dispatch loop. The calling goroutine holds the baton and
// dispatches events until control has to go to a process: it returns
// that process with k.current already set (the caller decides whether
// that means returning into its own Park, running the body itself, or a
// channel send), or nil when the driver's bound is reached or no events
// are left.
//
// A handler event is recycled after its handler returns, so its fields
// are stable while it runs. A process event is recycled before control
// moves: once the baton is passed, kernel state belongs to the next
// goroutine.
//
// The pop is written out here rather than in a function of its own: the
// extra call costs a plain event a tenth of its 15 ns.
func (k *Kernel) run() *Proc {
	for {
		e := k.events.min()
		if e != nil && e.canceled {
			e = k.peekEvent()
		}
		if e != nil && e.optional && k.dropIfOnlyOptional() {
			e = nil
		}
		if e == nil {
			if k.sampleEvery > 0 {
				k.flushSample()
			}
			return nil
		}
		if k.hooked {
			if e = k.popHooked(e); e == nil {
				return nil
			}
		} else {
			k.events.popMin()
			k.now = e.at
		}
		p := e.proc
		if p == nil {
			if e.call != nil {
				e.call(e.arg)
			} else {
				e.fn()
			}
		}
		k.recycle(e)
		if p != nil && !p.dead {
			k.current = p
			return p
		}
	}
}

// popHooked is the loop's uncommon pop, taken when the run is bounded
// (RunUntil, Steps), has a chooser or closes telemetry windows, so that these
// apply whichever goroutine is driving. It checks the bound before
// popping the head event e (nil when reached), lets the chooser swap e
// for a simultaneous event, closes the windows due before its time and
// advances the clock to it.
func (k *Kernel) popHooked(e *Event) *Event {
	if e.at > k.horizon || k.budget == 0 {
		return nil
	}
	k.events.popMin()
	k.budget--
	if k.chooser != nil {
		e = k.chooseNext(e)
	}
	if k.sampleEvery > 0 {
		k.sampleTo(e.at)
		k.mEvents.Inc()
	}
	k.now = e.at
	return e
}

// passTo moves the baton to the goroutine that must run next: p's own
// if it is parked, an idle worker or a new one if p has not started, or
// the driver when p is nil. The caller must not touch kernel state
// afterwards until it is handed the baton back on its own channel.
func (k *Kernel) passTo(p *Proc) {
	switch {
	case p == nil:
		k.driver <- nil
	case p.ch != nil:
		k.mHandoff.Inc()
		p.ch <- p
	default:
		k.mStart.Inc()
		if n := len(k.idle); n > 0 {
			ch := k.idle[n-1]
			k.idle[n-1] = nil
			k.idle = k.idle[:n-1]
			ch <- p
		} else {
			k.startWorker(p)
		}
	}
}

// With no horizon and no budget a run stops only when the heap drains.
const (
	noHorizon Time = math.MaxInt64
	noBudget       = math.MaxInt
)

// drive runs the loop on the driver goroutine up to the given bound,
// waiting out the stretches where a process goroutine holds the baton.
// Before returning it makes every idle worker exit, so a kernel that is
// dropped after Run leaves no goroutine behind.
func (k *Kernel) drive(horizon Time, budget int) {
	k.horizon, k.budget = horizon, budget
	k.hooked = k.chooser != nil || k.sampleEvery > 0 || horizon != noHorizon || budget != noBudget
	if p := k.run(); p != nil {
		k.passTo(p)
		<-k.driver
	}
	k.releaseIdle()
}

// Run dispatches events until none remain. It returns the final virtual
// time.
func (k *Kernel) Run() Time {
	k.drive(noHorizon, noBudget)
	return k.now
}

// RunUntil dispatches events with timestamps <= t, then advances the
// clock to t. Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t Time) {
	k.drive(t, noBudget)
	if k.now < t {
		k.now = t
	}
}

// Steps dispatches up to n events and reports how many actually ran.
// It exists for tests that want fine-grained control.
func (k *Kernel) Steps(n int) int {
	n = max(n, 0)
	k.drive(noHorizon, n)
	return n - k.budget
}

// Shutdown interrupts every parked process with ErrShutdown and runs the
// resulting unwinding until no live processes remain (or a safety bound
// is hit, which indicates a process that refuses to die). Tests that end
// a simulation early use it to avoid leaking goroutines.
func (k *Kernel) Shutdown() error {
	const maxRounds = 100000
	var procs []*Proc
	for round := 0; round < maxRounds; round++ {
		if k.live == 0 {
			return nil
		}
		// Interrupt in process-id order: the list is in park order,
		// which would otherwise leak into the wake ordering (and the
		// journal's procend sequence) of processes dying at the same
		// instant.
		procs = procs[:0]
		for p := k.parked; p != nil; p = p.parkNext {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
		for _, p := range procs {
			p.Interrupt(ErrShutdown)
		}
		if k.Steps(1) == 0 {
			// Live processes but nothing runnable: every live
			// process must be parked; the next round interrupts
			// them. If none are parked either, we are stuck.
			if k.parked == nil {
				return fmt.Errorf("sim: shutdown stuck with %d live processes", k.live)
			}
		}
	}
	return fmt.Errorf("sim: shutdown did not converge; %d live processes", k.live)
}

// Live reports the number of processes that have started and not yet
// terminated.
func (k *Kernel) Live() int { return k.live }

// Pending reports the number of events still scheduled (including
// canceled events not yet discarded).
func (k *Kernel) Pending() int { return k.events.len() }

// Current returns the running process, or nil while an event handler
// runs (a timer, say), whichever goroutine is dispatching it.
func (k *Kernel) Current() *Proc { return k.current }
