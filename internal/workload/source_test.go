package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSourceMatchesMathRand pins the twin to math/rand's default source:
// the raw stream over several register turns, then every method the
// generator reads through rand.New(twin).
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -9, 1 << 40} {
		var src source
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := range 2_000_000 {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 #%d = %#x, want %#x", seed, i, got, want)
			}
		}
		twin, mr := rand.New(&src), rand.New(ref)
		for i := range 20_000 {
			if got, want := twin.Int63(), mr.Int63(); got != want {
				t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, got, want)
			}
			if got, want := twin.Float64(), mr.Float64(); got != want {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, got, want)
			}
			if got, want := twin.ExpFloat64(), mr.ExpFloat64(); got != want {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v, want %v", seed, i, got, want)
			}
			if got, want := twin.NormFloat64(), mr.NormFloat64(); got != want {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, got, want)
			}
			for _, n := range []int{1, 3, 200, 10_000, 1 << 40} {
				if got, want := twin.Intn(n), mr.Intn(n); got != want {
					t.Fatalf("seed %d: Intn(%d) #%d = %d, want %d", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestInt31nTwin checks the inlined draw against (*rand.Rand).Int31n,
// value for value and draw for draw: small moduli, every power of two,
// and moduli just above 2^30, where about half the draws are rejected.
func TestInt31nTwin(t *testing.T) {
	var src source
	src.Seed(3)
	ref := rand.New(rand.NewSource(3))
	check := func(m int32, draws int) {
		t.Helper()
		for i := range draws {
			if got, want := src.int31n(m), ref.Int31n(m); got != want {
				t.Fatalf("int31n(%d) #%d = %d, want %d", m, i, got, want)
			}
		}
	}
	for m := int32(1); m <= 10_000; m++ {
		check(m, 20)
	}
	for m := int32(1); m > 0; m <<= 1 {
		check(m, 200)
	}
	for m := int32(1<<30 - 2); m <= 1<<30+6; m++ {
		check(m, 5_000)
	}
	check(1<<31-1, 5_000)
	if got, want := src.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("streams diverged: next draw %#x, want %#x", got, want)
	}
}

// BenchmarkPermPrefix times one access-set draw in the two shapes the
// benchmark workloads draw: the paper default, 10 objects out of 200
// (single-plain, dist-modes, explore), and the streaming soak, 4 out of
// 10 000 (stream).
func BenchmarkPermPrefix(b *testing.B) {
	for _, c := range []struct{ db, size int }{{200, 10}, {10_000, 4}} {
		b.Run(fmt.Sprintf("db%d/size%d", c.db, c.size), func(b *testing.B) {
			var src source
			src.Seed(1)
			dst := make([]int, c.size)
			for range b.N {
				src.permPrefix(dst, c.db)
			}
		})
	}
}

// TestPermPrefixMatchesPerm checks the prefix shuffle against rand.Perm:
// the same first size elements, and the same draws consumed.
func TestPermPrefixMatchesPerm(t *testing.T) {
	ns := []int{200, 500, 1000, 4999, 9999, 10_000}
	for n := 1; n <= 100; n++ {
		ns = append(ns, n)
	}
	for p := 128; p <= 8192; p <<= 1 {
		ns = append(ns, p-1, p, p+1)
	}
	var src source
	for _, n := range ns {
		src.Seed(int64(n))
		ref := rand.New(rand.NewSource(int64(n)))
		sizes := []int{n}
		for size := 1; size <= min(n, 20); size++ {
			sizes = append(sizes, size)
		}
		for _, size := range sizes {
			got := make([]int, size)
			src.permPrefix(got, n)
			if want := ref.Perm(n)[:size]; !slices.Equal(got, want) {
				t.Fatalf("n=%d size=%d: prefix %v, want %v", n, size, got, want)
			}
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("n=%d size=%d: next draw %#x, want %#x", n, size, got, want)
			}
		}
	}
}

// drawLog is a math/rand source that remembers the Int63 draws.
type drawLog struct {
	rand.Source
	draws []int64
}

func (d *drawLog) Int63() int64 {
	v := d.Source.Int63()
	d.draws = append(d.draws, v)
	return v
}

// TestPermPrefixRedraw covers the tail loop's way out to redraw, which
// it takes for a draw above 2^31-(i+1), about once in 2^31/i steps: at
// n = 2^17 each shuffle takes it a few times. A reference walk of
// rand.Perm's draws counts the tail steps whose first draw is that
// high, and the prefix must still be rand.Perm's.
func TestPermPrefixRedraw(t *testing.T) {
	const n, size = 1 << 17, 4
	redraws := 0
	for seed := int64(1); seed <= 4; seed++ {
		log := &drawLog{Source: rand.NewSource(seed)}
		walk := rand.New(log)
		for i := range n {
			log.draws = log.draws[:0]
			walk.Int31n(int32(i + 1))
			if i >= size && int32(log.draws[0]>>32) > math.MaxInt32-int32(i) {
				redraws++
			}
		}
		var src source
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		got := make([]int, size)
		src.permPrefix(got, n)
		if want := ref.Perm(n)[:size]; !slices.Equal(got, want) {
			t.Fatalf("seed %d: prefix %v, want %v", seed, got, want)
		}
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: next draw %#x, want %#x", seed, got, want)
		}
	}
	if redraws == 0 {
		t.Fatal("no tail step drew above its rejection threshold: redraw untested")
	}
	t.Logf("%d tail steps took redraw", redraws)
}

// TestPermPrefixEveryRegisterPhase starts the prefix shuffle at every
// position of the register (phase draws after Seed), so the tail loop's
// runs begin and end at every offset of both indexes, with pools that
// end a run before, at and after either index wraps.
func TestPermPrefixEveryRegisterPhase(t *testing.T) {
	const seed, size = 7, 4
	ns := []int{size + 1, 273, 274, 334, 335, 606, 607, 608, 1214, 10_000}
	var src source
	for phase := range srcLen {
		for _, n := range ns {
			src.Seed(seed)
			ref := rand.New(rand.NewSource(seed))
			for range phase {
				src.Uint64()
				ref.Uint64()
			}
			got := make([]int, size)
			src.permPrefix(got, n)
			if want := ref.Perm(n)[:size]; !slices.Equal(got, want) {
				t.Fatalf("phase %d n=%d: prefix %v, want %v", phase, n, got, want)
			}
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("phase %d n=%d: next draw %#x, want %#x", phase, n, got, want)
			}
		}
	}
}

// FuzzPermPrefix checks the prefix shuffle against rand.Perm from any
// seed and register phase, for pools up to 2^18 objects.
func FuzzPermPrefix(f *testing.F) {
	f.Add(int64(1), uint16(0), uint32(10_000), uint16(4))
	f.Add(int64(3), uint16(333), uint32(200), uint16(10))
	f.Add(int64(-9), uint16(606), uint32(608), uint16(608))
	// At n = 2^17 the shuffle from seed 1 takes redraw a few times.
	f.Add(int64(1), uint16(0), uint32(1<<17), uint16(4))
	f.Fuzz(func(t *testing.T, seed int64, phase uint16, n uint32, size uint16) {
		if n %= 1<<18 + 1; n == 0 {
			t.Skip()
		}
		size = uint16(min(uint32(size), n))
		var src source
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for range int(phase) % srcLen {
			src.Uint64()
			ref.Uint64()
		}
		got := make([]int, size)
		src.permPrefix(got, int(n))
		if want := ref.Perm(int(n))[:size]; !slices.Equal(got, want) {
			t.Fatalf("prefix %v, want %v", got, want)
		}
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("next draw %#x, want %#x", got, want)
		}
	})
}
