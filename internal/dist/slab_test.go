package dist

import "testing"

// TestSlabCarvesFreshValues: every value a slab hands out is zero and
// distinct from every earlier one, a carved slice cannot be appended
// into its neighbour, and chunks double from four values to 64.
func TestSlabCarvesFreshValues(t *testing.T) {
	var s slab[int]
	seen := map[*int]bool{}
	for i := 0; i < 300; i++ {
		n := 1 + i%3
		v := s.take(n)
		if len(v) != n || cap(v) != n {
			t.Fatalf("take(%d): len %d cap %d", n, len(v), cap(v))
		}
		for j := range v {
			if v[j] != 0 || seen[&v[j]] {
				t.Fatalf("take(%d) #%d handed out a used value", n, i)
			}
			seen[&v[j]] = true
			v[j] = i + 1
		}
	}
	if c := cap(s.free); c != slabMax {
		t.Errorf("chunk of %d values after 600, want %d", c, slabMax)
	}
	if v := s.take(slabMax + 1); len(v) != slabMax+1 {
		t.Errorf("an oversized request got %d values", len(v))
	}
	var b slab[int]
	for _, want := range []int{4, 8, 16, 32, 64, 64} {
		for range want {
			b.new(1)
		}
		if c := cap(b.free); c != want {
			t.Fatalf("chunk of %d values, want %d", c, want)
		}
	}
}
