package sim

// Station is a k-server FIFO service center (e.g. a pool of disks).
// Requests queue for a free server, hold it for their service time, and
// release it. A Station with zero servers is a pure delay: every request
// is served immediately in parallel — the paper's "parallel I/O
// processing" assumption, and the default I/O model of the experiments.
type Station struct {
	k       *Kernel
	servers int
	sem     *Semaphore

	busy Duration
	jobs int

	// Probe handles, cached at construction (no-ops without a
	// registry).
	mJobs      Counter
	mBusy      Counter
	mInService Gauge
}

// NewStation returns a service center with the given number of servers
// (0 = infinite, pure delay).
func NewStation(k *Kernel, servers int) *Station {
	s := &Station{k: k}
	s.Reset(servers)
	return s
}

// Reset returns an idle station to the state NewStation leaves it in,
// with the given number of servers. Like CPU.Reset it takes its probe
// handles afresh from the kernel's registry.
func (s *Station) Reset(servers int) {
	*s = Station{k: s.k, servers: servers}
	if servers > 0 {
		s.sem = NewSemaphore(s.k, servers)
	}
	m := s.k.Metrics()
	s.mJobs = m.Counter("io_jobs_total", "I/O service requests accepted.")
	s.mBusy = m.Counter("io_busy_ticks_total", "Virtual time of I/O service delivered.")
	s.mInService = m.Gauge("io_in_service", "I/O requests being served or queued.")
}

// Serve occupies one server for d, parking p while waiting and while
// served. It returns nil on completion or the cancellation error if the
// wait or the service was interrupted; an interrupted service still
// frees its server.
func (s *Station) Serve(p *Proc, d Duration) error {
	s.jobs++
	s.mJobs.Inc()
	s.mInService.Add(1)
	defer s.mInService.Add(-1)
	if s.sem == nil {
		s.busy += d
		s.mBusy.Add(int64(d))
		return p.Sleep(d)
	}
	if err := s.sem.Wait(p); err != nil {
		return err
	}
	err := p.Sleep(d)
	if err == nil {
		s.busy += d
		s.mBusy.Add(int64(d))
	} else {
		// Partial service: the exact consumed amount is unknown to
		// the station (the sleep was cut short); charge nothing.
	}
	s.sem.Signal()
	return err
}

// Servers returns the configured server count (0 = infinite).
func (s *Station) Servers() int { return s.servers }

// Jobs returns the number of service requests accepted.
func (s *Station) Jobs() int { return s.jobs }

// Busy returns the total service time delivered to completed requests.
func (s *Station) Busy() Duration { return s.busy }

// QueueLen reports requests waiting for a server.
func (s *Station) QueueLen() int {
	if s.sem == nil {
		return 0
	}
	return s.sem.Waiting()
}
