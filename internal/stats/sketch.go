package stats

import (
	"math"

	"rtlock/internal/sim"
)

// Sketch is a deterministic fixed-bucket quantile sketch over simulated
// durations. Unlike sampling sketches (t-digest, GK), it has no random
// state and no data-dependent bucket boundaries: bucket i counts
// observations in (i·width, (i+1)·width], with zero landing in bucket 0
// and everything beyond the last bucket in an overflow cell. Two runs
// that observe the same sequence therefore hold byte-identical state,
// and a quantile answer is always within one bucket width of the exact
// nearest-rank value as long as the observation fits the covered range
// (the overflow cell answers with the tracked maximum instead).
//
// Memory is buckets×8 bytes, fixed at construction — the monitor's
// bounded-memory replacement for retaining and sorting every response
// time.
type Sketch struct {
	width  sim.Duration
	counts []int64
	count  int64
	sum    sim.Duration
	max    sim.Duration
}

// Default sketch geometry for response times: 1ms buckets
// covering 0–8.192s. Every calibrated experiment's deadlines (and so
// every committed response time) fit well inside the covered range.
const (
	// DefaultSketchWidth is the default bucket width.
	DefaultSketchWidth = sim.Millisecond
	// DefaultSketchBuckets is the default bucket count.
	DefaultSketchBuckets = 8192
)

// NewSketch returns an empty sketch of the given geometry; non-positive
// arguments pick the defaults.
func NewSketch(width sim.Duration, buckets int) *Sketch {
	if width <= 0 {
		width = DefaultSketchWidth
	}
	if buckets <= 0 {
		buckets = DefaultSketchBuckets
	}
	return &Sketch{width: width, counts: make([]int64, buckets)}
}

// Observe records one duration. Negative durations clamp to zero. The
// method allocates nothing; it is safe on the simulation hot path.
func (s *Sketch) Observe(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	s.count++
	s.sum += d
	if d > s.max {
		s.max = d
	}
	idx := 0
	if d > 0 {
		// Inclusive upper edge: d in (i·width, (i+1)·width] lands in i.
		idx = int((d - 1) / s.width)
	}
	// Beyond the covered range only count and max see the observation:
	// Quantile answers a rank no bucket reaches with max.
	if idx < len(s.counts) {
		s.counts[idx]++
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() int64 { return s.count }

// Sum returns the sum of observations.
func (s *Sketch) Sum() sim.Duration { return s.sum }

// Max returns the largest observation.
func (s *Sketch) Max() sim.Duration { return s.max }

// Width returns the bucket width.
func (s *Sketch) Width() sim.Duration { return s.width }

// Mean returns the mean observation (0 when empty).
func (s *Sketch) Mean() sim.Duration {
	if s.count == 0 {
		return 0
	}
	return s.sum / sim.Duration(s.count)
}

// Quantile returns the q-quantile (0 < q ≤ 1) by the nearest-rank
// method, answering with the containing bucket's upper edge clamped to
// the maximum observation — so the answer is within one bucket width of
// the exact nearest-rank value whenever the rank falls inside the
// covered range, and exactly the maximum when it falls beyond it.
func (s *Sketch) Quantile(q float64) sim.Duration {
	if q <= 0 || q > 1 || s.count == 0 {
		return 0
	}
	// The same ceil-rank as ResponsePercentile's exact path, so the two
	// disagree only by the in-bucket rounding, never by rank selection.
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var seen int64
	for i, c := range s.counts {
		seen += c
		if seen >= rank {
			upper := sim.Duration(i+1) * s.width
			if upper > s.max {
				upper = s.max
			}
			return upper
		}
	}
	return s.max
}

// Reset clears the sketch for reuse without releasing its buckets. Only
// buckets up to the maximum's can be non-zero, so an empty sketch
// clears none and the cost follows the observations, not the geometry.
func (s *Sketch) Reset() {
	if s.count > 0 {
		clear(s.counts[:min(int((s.max-1)/s.width)+1, len(s.counts))])
	}
	s.count = 0
	s.sum = 0
	s.max = 0
}
