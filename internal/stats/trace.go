package stats

import (
	"fmt"
	"strings"

	"rtlock/internal/core"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
)

// Event is one trace line: a transaction-level journal record and, on a
// lockgrant, how long the transaction was blocked since its request.
type Event struct {
	journal.Record
	Blocked sim.Duration
}

// String renders one event line.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fms tx%-4d %-9s", sim.Duration(e.At).Millis(), e.Tx, e.Kind)
	switch e.Kind {
	case journal.KArrive:
		s += fmt.Sprintf(" deadline=%.1fms", sim.Duration(e.A).Millis())
	case journal.KLockRequest, journal.KLockGrant, journal.KOp:
		s += fmt.Sprintf(" obj%-4d %s", e.Obj, core.Mode(e.A))
		if e.Blocked > 0 {
			s += fmt.Sprintf(" blocked %.1fms", e.Blocked.Millis())
		}
	case journal.KLockBlock:
		s += fmt.Sprintf(" obj%-4d", e.Obj)
		if e.B == 1 {
			s += " ceiling"
		}
		if e.A >= 0 {
			s += fmt.Sprintf(" by tx%d", e.A)
		}
	case journal.KRestart:
		s += fmt.Sprintf(" attempt=%d", e.A)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return strings.TrimRight(s, " ")
}

// Trace is the performance monitor's event log: a journal observer
// keeping, in order, the transaction-level records of a run (arrivals,
// lock requests, blocks and grants, operations, restarts, commits and
// deadline misses). A zero capacity means unbounded; otherwise
// recording stops (silently) at the cap, keeping long runs cheap while
// short investigations see everything.
type Trace struct {
	cap    int
	events []Event
	// requested holds each transaction's latest lock-request time, so
	// its grant can report the blocked interval.
	requested map[int64]int64
}

// NewTrace returns a trace keeping at most capacity events (0 =
// unbounded).
func NewTrace(capacity int) *Trace {
	return &Trace{cap: capacity, requested: make(map[int64]int64)}
}

// Observe implements journal.Observer.
func (t *Trace) Observe(r *journal.Record) {
	if t.cap > 0 && len(t.events) >= t.cap {
		return
	}
	var blocked sim.Duration
	switch r.Kind {
	case journal.KLockRequest:
		t.requested[r.Tx] = r.At
	case journal.KLockGrant:
		blocked = sim.Duration(r.At - t.requested[r.Tx])
	case journal.KArrive, journal.KLockBlock, journal.KOp,
		journal.KRestart, journal.KCommit, journal.KDeadlineMiss:
	default:
		return
	}
	t.events = append(t.events, Event{Record: *r, Blocked: blocked})
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns a copy of the full log.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return append([]Event(nil), t.events...)
}

// Timeline returns the events of one transaction, in order.
func (t *Trace) Timeline(tx int64) []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, e := range t.events {
		if e.Tx == tx {
			out = append(out, e)
		}
	}
	return out
}

// String renders the whole log, one event per line.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range t.events {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
