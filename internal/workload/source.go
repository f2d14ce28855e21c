package workload

import (
	"math"
	"math/rand"
)

// source is a concrete twin of math/rand's default Source: the same
// additive lagged-Fibonacci generator, x[n] = x[n-607] + x[n-273] mod
// 2^64, in the same register layout. Go 1's compatibility promise fixes
// the stream rand.NewSource(seed) produces, and Seed rebuilds exactly
// that generator's register, so rand.New(src) reads the identical stream
// while the access-set shuffle calls Uint64 without interface dispatch.
// TestSourceMatchesMathRand pins the equivalence.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen  = 607 // the register length (long lag)
	srcTap  = 273 // the short lag
	srcMask = 1<<63 - 1
)

// Seed positions the source where rand.NewSource(seed) starts. The
// reference is drawn through one full turn of its register: each step
// writes the slot under feed, so after srcLen steps every slot holds one
// output and both indexes are back at their start. Undoing the steps in
// reverse (vec[feed] -= vec[tap]) recovers the seeded register.
func (s *source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, srcLen-srcTap
	for range srcLen {
		s.step()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
}

// step moves both register indexes back by one slot.
func (s *source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
}

// Uint64 returns the next 64 bits of the stream.
func (s *source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value as a non-negative int64, as math/rand's
// source does.
func (s *source) Int63() int64 { return int64(s.Uint64() & srcMask) }

// int31n is (*rand.Rand).Int31n(m) for 0 < m < 2^31, consuming the same
// draws. Its rejection bound 2^31-1 - 2^31 mod m is never below 2^31-m,
// so the bound's division runs only for the rare v above that. A power
// of two needs no branch of its own: its bound is 2^31-1, which rejects
// nothing, and v % m is v & (m-1).
func (s *source) int31n(m int32) int32 {
	v := int32(s.Int63() >> 32)
	if v > math.MaxInt32-(m-1) {
		v = s.redraw(v, m)
	}
	// Both operands are non-negative: the unsigned remainder is v % m
	// without the signed division's check for m == -1.
	return int32(uint32(v) % uint32(m))
}

// redraw finishes int31n's rejection loop for a draw v above 2^31-m.
func (s *source) redraw(v, m int32) int32 {
	bound := int32(1<<31 - 1 - (1<<31)%uint32(m))
	for v > bound {
		v = int32(s.Int63() >> 32)
	}
	return v
}

// permPrefix fills dst with the first len(dst) elements of rand.Perm(n)
// and consumes exactly the draws rand.Perm(n) would, for len(dst) <= n <
// 2^31. Perm's inside-out shuffle only ever moves a value from a low
// position to a higher one, so once i >= len(dst) a step can touch the
// prefix only by writing i into it: the shuffle writes len(dst) slots
// and draws n times.
func (s *source) permPrefix(dst []int, n int) {
	size := len(dst)
	for i := range size {
		j := s.int31n(int32(i + 1))
		dst[i] = dst[j]
		dst[j] = i
	}
	// int31n(i+1) and Uint64, written out: the calls do not inline,
	// and this loop is nearly all of a large database's generation time.
	// The register is walked in runs that wrap neither index: a run of k
	// steps reads the k slots below tap and feed from the top down, so a
	// step is a load, an add, a store and a check, with no index
	// arithmetic. t is cut to f's length, so neither index is
	// bounds-checked.
	tap, feed := s.tap, s.feed
	for i := size; i < n; {
		if tap == 0 {
			tap = srcLen
		}
		if feed == 0 {
			feed = srcLen
		}
		k := min(tap, feed, n-i)
		tap, feed = tap-k, feed-k
		f := s.vec[feed : feed+k]
		t := s.vec[tap:][:len(f)]
		for j := len(f) - 1; j >= 0; j-- {
			x := f[j] + t[j]
			f[j] = x
			v := int32(x & srcMask >> 32)
			if int(v) > math.MaxInt32-i {
				// redraw steps the register itself: hand it this
				// step's indexes, finish the step here (so the common
				// path tests nothing more), and start the next run
				// where redraw left them.
				s.tap, s.feed = tap+j, feed+j
				v = s.redraw(v, int32(i+1))
				tap, feed = s.tap, s.feed
				if r := int(uint32(v) % uint32(i+1)); r < size {
					dst[r] = i
				}
				i++
				break
			}
			if r := int(uint32(v) % uint32(i+1)); r < size {
				dst[r] = i
			}
			i++
		}
	}
	s.tap, s.feed = tap, feed
}
