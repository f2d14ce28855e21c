package sim

import (
	"rtlock/internal/journal"
)

// Discipline selects how a CPU orders its ready queue.
type Discipline int

// CPU scheduling disciplines. The paper's protocol L (two-phase locking
// without priority mode) runs on a FIFO processor; protocols P and C run
// on a preemptive-priority processor where a higher-priority transaction
// preempts lower-priority ones unless blocked by the locking protocol.
const (
	// PreemptivePriority dispatches the highest-priority request and
	// preempts the running one when a more urgent request arrives or
	// is promoted (priority inheritance).
	PreemptivePriority Discipline = iota + 1
	// FIFO dispatches in arrival order and never preempts.
	FIFO
)

// CPU models a single processor at a site. Requests consume service time;
// under PreemptivePriority a request's remaining service is tracked
// across preemptions. Priority inheritance reaches the CPU through
// Reprioritize.
type CPU struct {
	k     *Kernel
	disc  Discipline
	cur   *cpuReq
	ready cpuQueue

	busy Duration // total service delivered
	seq  uint64

	// freeReqs recycles request records; a record is owned by Use for
	// its whole lifetime (Park returns only after the request has left
	// the CPU), so reuse cannot alias. ties is the chooseTie scratch.
	freeReqs []*cpuReq
	ties     []*cpuReq

	// Probe handles, cached at construction (no-ops without a
	// registry). Distributed clusters share the series across their
	// per-site CPUs, so the counters aggregate the whole machine.
	mDispatch Counter
	mPreempt  Counter
	mBusy     Counter
	mReady    Gauge
}

type cpuReq struct {
	c       *CPU
	proc    *Proc
	prio    Priority
	rem     Duration
	tok     Token
	runFrom Time
	doneEv  EventRef
	seq     uint64
	idx     int
}

// NewCPU returns a processor scheduled under disc.
func NewCPU(k *Kernel, disc Discipline) *CPU {
	c := &CPU{k: k}
	c.Reset(disc)
	return c
}

// Reset returns an idle processor to the state NewCPU leaves it in,
// scheduled under disc, keeping its pooled request records. Its probe
// handles are taken afresh from the kernel's registry, so a Reset
// kernel's processor is reset after the kernel's registry is attached.
func (c *CPU) Reset(disc Discipline) {
	clear(c.ready.reqs)
	m := c.k.Metrics()
	*c = CPU{
		k: c.k, disc: disc, ready: cpuQueue{disc: disc, reqs: c.ready.reqs[:0]},
		freeReqs: c.freeReqs, ties: c.ties,
		mDispatch: m.Counter("cpu_dispatches_total", "CPU dispatches (service starts and resumptions)."),
		mPreempt:  m.Counter("cpu_preemptions_total", "CPU preemptions of the running request."),
		mBusy:     m.Counter("cpu_busy_ticks_total", "Virtual time of CPU service delivered."),
		mReady:    m.Gauge("cpu_ready_queue", "Requests waiting behind the running one."),
	}
}

func (c *CPU) getReq() *cpuReq {
	if n := len(c.freeReqs); n > 0 {
		r := c.freeReqs[n-1]
		c.freeReqs[n-1] = nil
		c.freeReqs = c.freeReqs[:n-1]
		return r
	}
	return &cpuReq{c: c}
}

func (c *CPU) putReq(r *cpuReq) {
	r.proc = nil
	r.prio = Priority{}
	r.rem = 0
	r.tok = Token{}
	r.runFrom = 0
	r.doneEv = EventRef{}
	r.seq = 0
	r.idx = 0
	c.freeReqs = append(c.freeReqs, r)
}

// Use consumes d of service time on behalf of p at the given priority,
// parking p until the service completes. It returns nil on completion or
// the cancellation error if the request was interrupted (deadline abort,
// shutdown). Zero or negative demand completes via the event queue so
// ordering stays deterministic.
func (c *CPU) Use(p *Proc, prio Priority, d Duration) error {
	if d <= 0 {
		return p.Sleep(0)
	}
	req := c.getReq()
	req.proc = p
	req.prio = prio
	req.rem = d
	req.tok.onCancel = removeReq
	req.tok.onCancelArg = req
	c.add(req)
	err := p.Park(&req.tok)
	c.putReq(req)
	return err
}

// removeReq is the static cancel hook: detach the request from its CPU.
func removeReq(a any) {
	r := a.(*cpuReq)
	r.c.remove(r)
}

// completeReq is the static service-completion handler.
func completeReq(a any) {
	r := a.(*cpuReq)
	r.c.complete(r)
}

// Reprioritize updates the priority of p's pending request, if any,
// re-sorting the ready queue and preempting as needed. Lock managers call
// it when a transaction inherits (or sheds) priority while waiting for or
// holding the processor.
func (c *CPU) Reprioritize(p *Proc, prio Priority) {
	if c.disc != PreemptivePriority {
		return
	}
	if c.cur != nil && c.cur.proc == p {
		c.cur.prio = prio
		c.maybePreemptCur()
		return
	}
	for i, r := range c.ready.reqs {
		if r.proc == p {
			r.prio = prio
			c.ready.fix(i)
			c.maybePreemptCur()
			return
		}
	}
}

// Busy returns the total service time the CPU has delivered, for
// utilization reporting.
func (c *CPU) Busy() Duration {
	b := c.busy
	if c.cur != nil {
		b += c.k.now.Sub(c.cur.runFrom)
	}
	return b
}

// QueueLen reports how many requests wait behind the running one.
func (c *CPU) QueueLen() int { return c.ready.len() }

func (c *CPU) add(req *cpuReq) {
	req.seq = c.nextSeq()
	if c.cur == nil {
		c.dispatch(req)
		return
	}
	if c.disc == PreemptivePriority && req.prio.Higher(c.cur.prio) {
		c.preemptCur()
		c.dispatch(req)
		return
	}
	c.ready.push(req)
	c.mReady.Add(1)
}

func (c *CPU) nextSeq() uint64 {
	c.seq++
	return c.seq
}

func (c *CPU) dispatch(req *cpuReq) {
	c.cur = req
	req.runFrom = c.k.now
	c.mDispatch.Inc()
	c.k.Emit(journal.KCPUDispatch, req.proc.id, 0, int64(req.rem), 0, "")
	req.doneEv = c.k.AfterCall(req.rem, completeReq, req)
}

func (c *CPU) complete(req *cpuReq) {
	c.busy += req.rem
	c.mBusy.Add(int64(req.rem))
	req.rem = 0
	c.cur = nil
	req.tok.Wake(nil)
	c.next()
}

func (c *CPU) preemptCur() {
	req := c.cur
	req.doneEv.Cancel()
	used := c.k.now.Sub(req.runFrom)
	c.busy += used
	c.mBusy.Add(int64(used))
	req.rem -= used
	c.cur = nil
	c.mPreempt.Inc()
	c.k.Emit(journal.KCPUPreempt, req.proc.id, 0, int64(req.rem), 0, "")
	c.ready.push(req)
	c.mReady.Add(1)
}

// maybePreemptCur preempts the running request if the ready queue now
// holds a more urgent one (after a priority change).
func (c *CPU) maybePreemptCur() {
	if c.cur == nil || c.ready.len() == 0 {
		return
	}
	head := c.ready.reqs[0]
	if head.prio.Higher(c.cur.prio) {
		c.preemptCur()
		c.next()
	}
}

func (c *CPU) next() {
	if c.cur != nil {
		return
	}
	req := c.ready.pop()
	if req == nil {
		return
	}
	if c.k.chooser != nil && c.disc == PreemptivePriority {
		req = c.chooseTie(req)
	}
	c.mReady.Add(-1)
	c.dispatch(req)
}

// chooseTie widens the popped ready-queue head into the set of requests
// sharing its exact priority and lets the attached chooser pick which
// dispatches; the rest are re-pushed with their sequence numbers intact,
// preserving the canonical relative order. Priorities embed the
// transaction id as a tie-break, so ties arise only between processes
// acting for the same transaction (or under inherited/system
// priorities) — rare, but exactly the orderings a fixed seq-based pick
// would never vary. FIFO queues are excluded: arrival order there is
// protocol semantics (protocol L), not an arbitrary tie-break.
func (c *CPU) chooseTie(req *cpuReq) *cpuReq {
	if c.ready.len() == 0 || c.ready.reqs[0].prio != req.prio {
		return req
	}
	ties := append(c.ties[:0], req)
	for c.ready.len() > 0 && c.ready.reqs[0].prio == req.prio {
		ties = append(ties, c.ready.pop())
	}
	pick := c.k.Choose(ChooseReady, len(ties))
	for i, r := range ties {
		if i != pick {
			c.ready.push(r)
		}
	}
	picked := ties[pick]
	for i := range ties {
		ties[i] = nil
	}
	c.ties = ties[:0]
	return picked
}

func (c *CPU) remove(req *cpuReq) {
	if c.cur == req {
		req.doneEv.Cancel()
		used := c.k.now.Sub(req.runFrom)
		c.busy += used
		c.mBusy.Add(int64(used))
		req.rem -= used
		c.cur = nil
		c.next()
		return
	}
	if c.ready.remove(req) {
		c.mReady.Add(-1)
	}
}

// cpuQueue is a ready queue ordered by priority (PreemptivePriority) or
// arrival sequence (FIFO); under FIFO the ordering key is just the
// sequence number. Like eventHeap it is a direct binary min-heap rather
// than container/heap, avoiding interface dispatch on the hot path. The
// key is a strict total order (seq is unique), so pop order does not
// depend on heap layout.
type cpuQueue struct {
	disc Discipline
	reqs []*cpuReq
}

func (q *cpuQueue) less(a, b *cpuReq) bool {
	if q.disc == PreemptivePriority {
		if a.prio != b.prio {
			return a.prio.Higher(b.prio)
		}
	}
	return a.seq < b.seq
}

func (q *cpuQueue) len() int { return len(q.reqs) }

func (q *cpuQueue) push(r *cpuReq) {
	r.idx = len(q.reqs)
	q.reqs = append(q.reqs, r)
	q.up(r.idx)
}

func (q *cpuQueue) up(i int) {
	s := q.reqs
	r := s[i]
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(r, s[p]) {
			break
		}
		s[i] = s[p]
		s[i].idx = i
		i = p
	}
	s[i] = r
	r.idx = i
}

func (q *cpuQueue) down(i int) {
	s := q.reqs
	n := len(s)
	r := s[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rc := l + 1; rc < n && q.less(s[rc], s[l]) {
			m = rc
		}
		if !q.less(s[m], r) {
			break
		}
		s[i] = s[m]
		s[i].idx = i
		i = m
	}
	s[i] = r
	r.idx = i
}

// fix restores heap order after the element at i changed key.
func (q *cpuQueue) fix(i int) {
	q.down(i)
	q.up(i)
}

func (q *cpuQueue) pop() *cpuReq {
	n := len(q.reqs)
	if n == 0 {
		return nil
	}
	r := q.reqs[0]
	last := q.reqs[n-1]
	q.reqs[n-1] = nil
	q.reqs = q.reqs[:n-1]
	if n > 1 {
		q.reqs[0] = last
		last.idx = 0
		q.down(0)
	}
	r.idx = -1
	return r
}

func (q *cpuQueue) remove(r *cpuReq) bool {
	i := r.idx
	if i < 0 || i >= len(q.reqs) || q.reqs[i] != r {
		return false
	}
	n := len(q.reqs) - 1
	last := q.reqs[n]
	q.reqs[n] = nil
	q.reqs = q.reqs[:n]
	if i != n {
		q.reqs[i] = last
		last.idx = i
		q.fix(i)
	}
	r.idx = -1
	return true
}
