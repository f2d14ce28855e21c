package sim

// Station is a pure-delay service center: every request is served at
// once and in parallel with the others — the paper's "parallel I/O
// processing" assumption, and the I/O model of the experiments. It
// sums the service it delivers.
type Station struct {
	k    *Kernel
	busy Duration

	// Probe handles, cached at construction (no-ops without a
	// registry).
	mJobs      Counter
	mBusy      Counter
	mInService Gauge
}

// NewStation returns an idle service center.
func NewStation(k *Kernel) *Station {
	s := &Station{k: k}
	s.Reset()
	return s
}

// Reset returns the station to the state NewStation leaves it in. Like
// CPU.Reset it takes its probe handles afresh from the kernel's
// registry.
func (s *Station) Reset() {
	*s = Station{k: s.k}
	m := s.k.Metrics()
	s.mJobs = m.Counter("io_jobs_total", "I/O service requests accepted.")
	s.mBusy = m.Counter("io_busy_ticks_total", "Virtual time of I/O service delivered.")
	s.mInService = m.Gauge("io_in_service", "I/O requests being served or queued.")
}

// Serve parks p for d. It returns nil on completion or the cancellation
// error if the service was interrupted; the whole of d counts as
// delivered either way.
func (s *Station) Serve(p *Proc, d Duration) error {
	s.mJobs.Inc()
	s.mInService.Add(1)
	defer s.mInService.Add(-1)
	s.busy += d
	s.mBusy.Add(int64(d))
	return p.Sleep(d)
}

// Busy returns the total service time of the requests accepted.
func (s *Station) Busy() Duration { return s.busy }
