package sim

// Semaphore is a counting semaphore with a FIFO wait queue, the StarLite
// kernel primitive; a Station queues its requests on one.
type Semaphore struct {
	k *Kernel
	n int
	q []*semWaiter
}

// semWaiter is a blocked Wait: its token, and the semaphore whose queue
// a cancellation removes it from.
type semWaiter struct {
	Token
	s *Semaphore
}

// semWaiterCancel is the static cancel hook of a queued waiter.
func semWaiterCancel(a any) {
	w := a.(*semWaiter)
	w.s.drop(w)
}

// NewSemaphore returns a semaphore with an initial count.
func NewSemaphore(k *Kernel, initial int) *Semaphore {
	return &Semaphore{k: k, n: initial}
}

// Wait decrements the count, parking p while the count is zero. It
// returns nil once a unit is acquired, or the interruption error if the
// wait was canceled.
func (s *Semaphore) Wait(p *Proc) error {
	if s.n > 0 {
		s.n--
		return nil
	}
	w := &semWaiter{s: s}
	w.SetCancel(semWaiterCancel, w)
	s.q = append(s.q, w)
	return p.Park(&w.Token)
}

// TryWait acquires a unit without blocking, reporting success.
func (s *Semaphore) TryWait() bool {
	if s.n > 0 {
		s.n--
		return true
	}
	return false
}

// Signal releases a unit, waking the longest-waiting process if any.
func (s *Semaphore) Signal() {
	for len(s.q) > 0 {
		w := s.q[0]
		s.q = s.q[1:]
		if w.Wake(nil) {
			return
		}
	}
	s.n++
}

// Count returns the currently available units.
func (s *Semaphore) Count() int { return s.n }

// Waiting returns the number of parked waiters.
func (s *Semaphore) Waiting() int { return len(s.q) }

func (s *Semaphore) drop(w *semWaiter) {
	for i, x := range s.q {
		if x == w {
			s.q = append(s.q[:i], s.q[i+1:]...)
			return
		}
	}
}
