package sim

import (
	"fmt"

	"rtlock/internal/journal"
)

// Proc is a simulated process: a body that runs on a goroutine only while
// it holds the kernel's baton, mirroring the paper's "separate process
// for each transaction". A process advances virtual time by parking
// (Sleep, Park) and is resumed by kernel events.
type Proc struct {
	k    *Kernel
	id   int64
	name string
	dead bool

	// body is held from Start until the start event is popped. ch is the
	// channel of the worker goroutine running the body (nil until then);
	// a send on it hands the parked process the baton.
	body func(*Proc)
	ch   chan *Proc

	// waiting is the token the process is currently parked on, nil
	// while the process is running. Interrupt cancels it.
	waiting *Token

	// parkPrev/parkNext link the kernel's list of parked processes,
	// which Shutdown walks.
	parkPrev, parkNext *Proc
}

// Token is a one-shot wake-up slot a process parks on. Whoever completes
// the awaited condition calls Wake; whoever needs to cancel the wait
// (deadline aborts, shutdown) calls Cancel, which first runs the cancel
// hook (SetCancel) so the resource that enqueued the waiter can remove
// it.
type Token struct {
	// ev, when pending, is a timer driving this token; Cancel revokes
	// it so a canceled wait leaves no live event behind.
	ev EventRef

	// onCancel/onCancelArg are the cancel hook, a static function plus
	// its argument. It detaches the waiter from whatever queue it sits
	// in, and runs exactly once, before the process is woken with the
	// cancellation error.
	onCancel    func(any)
	onCancelArg any

	p     *Proc
	fired bool
	err   error
	k     *Kernel
}

// SetCancel installs the cancel hook: fn(arg) runs when the wait is
// canceled. Resource-internal tokens (CPU requests) use the same slot,
// so it must not be set on one of those.
func (t *Token) SetCancel(fn func(any), arg any) {
	t.onCancel = fn
	t.onCancelArg = arg
}

// Reset clears a token for reuse by a pooled waiter. Only legal before
// the first Park or after the owning Park has returned: a completed
// wait leaves no kernel references behind.
func (t *Token) Reset() { *t = Token{} }

// getToken hands out a reset token from the pool. Only call sites that
// own the token's full lifecycle (no other holder after Park returns)
// may pair it with putToken; everyone else allocates a Token normally.
func (k *Kernel) getToken() *Token {
	if n := len(k.freeTokens); n > 0 {
		t := k.freeTokens[n-1]
		k.freeTokens[n-1] = nil
		k.freeTokens = k.freeTokens[:n-1]
		return t
	}
	return &Token{}
}

// putToken resets and recycles a consumed token. A canceled timer event
// may still hold the token as its argument, but canceled events are
// discarded without running, so the stale reference is never followed.
func (k *Kernel) putToken(t *Token) {
	*t = Token{}
	k.freeTokens = append(k.freeTokens, t)
}

// Spawn creates a process named name and schedules it to start now. The
// body runs in simulation context; when it returns the process
// terminates. The process is Spawn's one allocation; an engine that
// starts a process per transaction keeps it in its pooled run and uses
// Start instead.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.Start(new(Proc), name, body)
}

// Start makes p a new process named name, running body, and schedules
// it to start now: p gets the next process id and is cleared of
// everything its previous life left, so a caller may keep one Proc in
// a pooled structure and start on it again once its body has returned.
// It panics when p has started and not yet ended. A caller that starts
// per transaction passes a body bound once and reused, and may pass an
// empty name when no journal would record it; then Start allocates
// nothing.
func (k *Kernel) Start(p *Proc, name string, body func(p *Proc)) *Proc {
	if p.k != nil && !p.dead {
		panicStartLive(p)
	}
	k.nextPID++
	*p = Proc{k: k, id: k.nextPID, name: name, body: body}
	k.live++
	k.mSpawns.Inc()
	k.mProcs.Add(1)
	k.Emit(journal.KSpawn, p.id, 0, 0, 0, name)
	k.scheduleProc(p)
	return p
}

// work is the body of a worker goroutine, which outlives the processes
// it runs. It runs p's body; when that returns it keeps the baton and
// drives the loop itself. If the next process event it pops is a start,
// it adopts that process on this goroutine; otherwise it passes the
// baton on and idles on the kernel's free list until a later start or
// the driver's release (nil) arrives on ch.
func (k *Kernel) work(ch chan *Proc, p *Proc) {
	for p != nil {
		p.ch = ch
		body := p.body
		p.body = nil
		body(p)
		p.dead = true
		k.live--
		k.mProcs.Add(-1)
		k.Emit(journal.KProcEnd, p.id, 0, 0, 0, "")
		k.current = nil
		if p = k.run(); p != nil && p.ch == nil {
			k.mAdopt.Inc()
			continue
		}
		k.idle = append(k.idle, ch)
		k.passTo(p)
		p = <-ch
	}
	k.driver <- nil
}

// startWorker runs p's body on a new worker goroutine. The channel has
// one slot for the same reason the driver's has.
func (k *Kernel) startWorker(p *Proc) {
	go k.work(make(chan *Proc, 1), p)
}

// releaseIdle makes every idle worker exit and waits for each one's
// acknowledgement. Waiting matters: a worker still on its way out when
// the next kernel starts spawning keeps its goroutine descriptor off
// the runtime's free list, and the runtime never frees the descriptors
// it allocates instead.
func (k *Kernel) releaseIdle() {
	for i, ch := range k.idle {
		k.idle[i] = nil
		ch <- nil
		<-k.driver
	}
	k.idle = k.idle[:0]
}

// ID returns the process id (unique per kernel).
func (p *Proc) ID() int64 { return p.id }

// Name returns the process name given at Start (possibly empty).
func (p *Proc) Name() string { return p.name }

// Dead reports whether the process body has finished. Crash-recovery
// bookkeeping uses it to purge registrations owned by processes that
// died while a manager's site was unreachable.
func (p *Proc) Dead() bool { return p.dead }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// panicStartLive, panicTokenReuse and panicParkNotRunning keep the
// panic-path string formatting (which heap-allocates its fmt arguments)
// out of Start's and Park's bodies, so those hot paths stay provably
// allocation-free. The noinline pragma stops the compiler from inlining
// the Sprintf back into every caller. They name the process by its id:
// a transaction's process has a name only while a journal is attached.
//
//go:noinline
func panicStartLive(p *Proc) {
	panic(fmt.Sprintf("sim: Start on process %d %q, which has not ended", p.id, p.name))
}

//go:noinline
func panicTokenReuse(p *Proc) {
	panic(fmt.Sprintf("sim: token reused by process %d %q", p.id, p.name))
}

//go:noinline
func panicParkNotRunning(p *Proc) {
	panic(fmt.Sprintf("sim: Park called by process %d %q while not running", p.id, p.name))
}

// Park suspends the process until tok is woken or canceled. It returns
// the error delivered with the wake-up (nil for a normal Wake). Each
// token may be parked on at most once.
func (p *Proc) Park(tok *Token) error {
	if tok.p != nil {
		panicTokenReuse(p)
	}
	if p.k.current != p {
		panicParkNotRunning(p)
	}
	tok.p = p
	tok.k = p.k
	if tok.fired {
		// Woken before parking (e.g. a zero-length resource use
		// completed inline). Consume the result without yielding.
		return tok.err
	}
	p.waiting = tok
	k := p.k
	k.parkPush(p)
	k.current = nil
	// Drive the loop from here. Popping our own resume event returns
	// straight away; anything else that moves control is one send, and
	// the baton comes back on p.ch once someone pops our resume event.
	if q := k.run(); q == p {
		k.mSelf.Inc()
	} else {
		k.passTo(q)
		<-p.ch
	}
	p.waiting = nil
	return tok.err
}

// parkPush links p at the head of the kernel's parked list.
func (k *Kernel) parkPush(p *Proc) {
	p.parkNext = k.parked
	if k.parked != nil {
		k.parked.parkPrev = p
	}
	k.parked = p
}

// parkRemove unlinks p from the kernel's parked list.
func (k *Kernel) parkRemove(p *Proc) {
	if p.parkPrev != nil {
		p.parkPrev.parkNext = p.parkNext
	} else {
		k.parked = p.parkNext
	}
	if p.parkNext != nil {
		p.parkNext.parkPrev = p.parkPrev
	}
	p.parkPrev, p.parkNext = nil, nil
}

// Wake delivers err (nil for success) to the parked process. It reports
// whether this call was the one that fired the token; later Wake/Cancel
// calls on a fired token are no-ops returning false.
//
// Wake never transfers control immediately: it schedules the resumption
// as a process event at the current time, preserving the single-runner
// discipline even when one process wakes another.
func (t *Token) Wake(err error) bool {
	if t.fired {
		return false
	}
	t.fired = true
	t.err = err
	if t.p == nil {
		// Not yet parked; Park will consume the result inline.
		return true
	}
	t.k.parkRemove(t.p)
	t.k.scheduleProc(t.p)
	return true
}

// Cancel detaches the waiter from its resource (revoking its timer and
// running the cancel hook) and wakes the process with err. It reports
// whether the token was still pending.
func (t *Token) Cancel(err error) bool {
	if t.fired {
		return false
	}
	t.ev.Cancel()
	if t.onCancel != nil {
		t.onCancel(t.onCancelArg)
	}
	return t.Wake(err)
}

// Interrupt cancels whatever wait the process is currently parked on,
// delivering err. It reports whether an interruption happened; a running
// or terminated process cannot be interrupted.
func (p *Proc) Interrupt(err error) bool {
	if p.waiting == nil {
		return false
	}
	return p.waiting.Cancel(err)
}

// Sleep parks the process for d of virtual time. It returns nil when the
// time elapsed or the interruption error if the sleep was canceled.
//
// The token and timer event are pooled: Sleep owns the token's whole
// lifecycle (nothing else ever sees it), so it is recycled as soon as
// Park returns.
func (p *Proc) Sleep(d Duration) error {
	if d <= 0 {
		// Even zero-length sleeps yield through the event queue so
		// that simultaneous activities interleave deterministically.
		d = 0
	}
	tok := p.k.getToken()
	tok.ev = p.k.AfterCall(d, wakeTokenNil, tok)
	err := p.Park(tok)
	p.k.putToken(tok)
	return err
}

// wakeTokenNil is the static timer handler: deliver a normal wake-up.
func wakeTokenNil(a any) { a.(*Token).Wake(nil) }
