package sim

// Event is a scheduled kernel action. Events fire in (time, sequence)
// order; the sequence number makes simultaneous events fire in the order
// they were scheduled, which is what keeps runs deterministic.
//
// Events are pooled: after an event fires (or a canceled event is
// discarded) the kernel bumps its generation and recycles the struct.
// External code therefore never holds a bare *Event — schedule calls
// return a generation-checked EventRef, so a stale handle to a recycled
// event turns into a harmless no-op instead of corrupting an innocent
// event that happens to reuse the allocation.
//
// The handler is stored in one of two forms: fn (a plain closure, the
// convenient path) or call+arg (a static function plus its argument, the
// allocation-free path used by hot sites like token wake-ups and CPU
// completions — storing a pointer in an interface value does not
// allocate, while a capturing closure does).
//
// An event with proc set has no handler: it moves control into that
// process — its start if the body has not run yet, otherwise its
// resumption from Park. The dispatch loop handles these itself (see
// Kernel.run), because the goroutine that pops one may be the very
// process it names.
type Event struct {
	at   Time
	seq  uint64
	gen  uint64
	fn   func()
	call func(any)
	arg  any
	proc *Proc
	idx  int
	// canceled marks the event dead in place; the heap discards it
	// lazily on pop, which is cheaper than eager removal.
	canceled bool
}

// EventRef is a cancelable handle to a scheduled event. The zero value
// is inert. Refs stay valid (as no-ops) after the event fires, even once
// the underlying struct is recycled for a different event: the embedded
// generation must match for Cancel to act.
type EventRef struct {
	e   *Event
	gen uint64
}

// Cancel prevents the event from firing. It reports whether the event
// was still pending; canceling an event that already fired, was already
// canceled, or whose struct has been recycled returns false.
func (r EventRef) Cancel() bool {
	e := r.e
	if e == nil || e.gen != r.gen || e.canceled || e.idx < 0 {
		return false
	}
	e.canceled = true
	return true
}

// At returns the virtual time the event is scheduled for, or -1 if the
// handle is inert or the event already fired and was recycled.
func (r EventRef) At() Time {
	if r.e == nil || r.e.gen != r.gen {
		return -1
	}
	return r.e.at
}

// Pending reports whether the event is still scheduled to fire.
func (r EventRef) Pending() bool {
	return r.e != nil && r.e.gen == r.gen && !r.e.canceled && r.e.idx >= 0
}

// eventHeap is a binary min-heap over (time, seq), implemented directly
// on the slice rather than through container/heap: the interface-based
// version boxes every comparison through dynamic dispatch, which
// profiles as a measurable slice of the kernel dispatch loop. (at, seq)
// is a strict total order — seq is unique — so pop order is fully
// determined and independent of heap layout.
type eventHeap struct {
	s []*Event
}

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.s) }

// push schedules e on the heap.
func (h *eventHeap) push(e *Event) {
	e.idx = len(h.s)
	h.s = append(h.s, e)
	h.up(e.idx)
}

func (h *eventHeap) up(i int) {
	s := h.s
	e := s[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e, s[p]) {
			break
		}
		s[i] = s[p]
		s[i].idx = i
		i = p
	}
	s[i] = e
	e.idx = i
}

func (h *eventHeap) down(i int) {
	s := h.s
	n := len(s)
	e := s[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(s[r], s[l]) {
			m = r
		}
		if !eventLess(s[m], e) {
			break
		}
		s[i] = s[m]
		s[i].idx = i
		i = m
	}
	s[i] = e
	e.idx = i
}

// popMin removes and returns the earliest event, canceled or not; nil
// when empty. Callers (the kernel) discard canceled events and recycle.
func (h *eventHeap) popMin() *Event {
	n := len(h.s)
	if n == 0 {
		return nil
	}
	e := h.s[0]
	last := h.s[n-1]
	h.s[n-1] = nil
	h.s = h.s[:n-1]
	if n > 1 {
		h.s[0] = last
		last.idx = 0
		h.down(0)
	}
	e.idx = -1
	return e
}

// min returns the earliest event without removing it (may be canceled);
// nil when empty.
func (h *eventHeap) min() *Event {
	if len(h.s) == 0 {
		return nil
	}
	return h.s[0]
}
