// Package buffer provides an LRU page buffer for the database — part of
// the "intrinsic" file-management layer the paper says dominates a
// database system's code while the control algorithms vary around it. An
// access that hits the buffer skips the per-object I/O delay; a miss
// pays it and installs the object, evicting the least recently used
// entry when full.
package buffer

import (
	"container/list"

	"rtlock/internal/core"
)

// Pool is an LRU object buffer. A nil pool or zero capacity means no
// buffering: every access misses, reproducing the unbuffered behavior of
// the calibrated experiments.
type Pool struct {
	capacity int
	order    *list.List // front = most recently used
	index    map[core.ObjectID]*list.Element

	// Hits and Misses count accesses for hit-ratio reporting.
	Hits   int
	Misses int
}

// New returns a pool holding up to capacity objects (capacity <= 0
// disables buffering).
func New(capacity int) *Pool {
	if capacity <= 0 {
		return &Pool{}
	}
	return &Pool{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[core.ObjectID]*list.Element, capacity),
	}
}

// Reset empties the pool and zeroes its counters, keeping its capacity.
func (p *Pool) Reset() {
	p.Hits, p.Misses = 0, 0
	if p.order != nil {
		p.order.Init()
		clear(p.index)
	}
}

// Access touches obj and reports whether it was resident (hit). Misses
// install the object, evicting the LRU entry if needed.
func (p *Pool) Access(obj core.ObjectID) bool {
	if p == nil || p.capacity <= 0 {
		if p != nil {
			p.Misses++
		}
		return false
	}
	if el, ok := p.index[obj]; ok {
		p.order.MoveToFront(el)
		p.Hits++
		return true
	}
	p.Misses++
	if p.order.Len() >= p.capacity {
		lru := p.order.Back()
		if lru != nil {
			if evicted, ok := lru.Value.(core.ObjectID); ok {
				delete(p.index, evicted)
			}
			p.order.Remove(lru)
		}
	}
	p.index[obj] = p.order.PushFront(obj)
	return false
}

// Invalidate drops obj from the buffer (e.g. a remote update superseded
// the cached copy).
func (p *Pool) Invalidate(obj core.ObjectID) {
	if p == nil || p.index == nil {
		return
	}
	if el, ok := p.index[obj]; ok {
		p.order.Remove(el)
		delete(p.index, obj)
	}
}

// Len reports the resident object count.
func (p *Pool) Len() int {
	if p == nil || p.order == nil {
		return 0
	}
	return p.order.Len()
}

// HitRatio reports hits/(hits+misses), zero when idle.
func (p *Pool) HitRatio() float64 {
	if p == nil {
		return 0
	}
	total := p.Hits + p.Misses
	if total == 0 {
		return 0
	}
	return float64(p.Hits) / float64(total)
}
