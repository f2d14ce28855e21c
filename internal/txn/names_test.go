package txn

import (
	"fmt"
	"math"
	"testing"
)

// TestNames: every name is prefix + id + suffix, whatever chunk it falls
// in and in whatever order ids are taken; a name of the current chunk
// costs nothing, and a new chunk one allocation.
func TestNames(t *testing.T) {
	n := NewNames("install-", "@2")
	for _, id := range []int64{0, 1, 63, 64, 7, 127, 128, 1000, -1, -64, -65, 1 << 40, math.MaxInt64, math.MinInt64, 5} {
		if got, want := n.Name(id), fmt.Sprintf("install-%d@2", id); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}
	tx := NewNames("tx", "")
	tx.Name(0)
	if allocs := testing.AllocsPerRun(100, func() {
		for id := range int64(64) {
			tx.Name(id)
		}
	}); allocs != 0 {
		t.Errorf("names of the current chunk allocated %.1f times per 64, want 0", allocs)
	}
	next := int64(64)
	if allocs := testing.AllocsPerRun(100, func() {
		for id := next; id < next+64; id++ {
			tx.Name(id)
		}
		next += 64
	}); allocs != 1 {
		t.Errorf("a new chunk of names allocated %.1f times, want 1", allocs)
	}
}
