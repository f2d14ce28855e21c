package experiments

import (
	"reflect"
	"testing"
)

// TestFaultSoak is the CI soak: a short randomized-plan severity sweep
// with auditing on. The sweep fails on the first invariant violation,
// so a green run certifies that every generated plan — crashes,
// partitions, loss — left the protocol auditors satisfied for both
// architectures.
func TestFaultSoak(t *testing.T) {
	p := DefaultFaults()
	p.Scale(0.1, 2)
	p.Audit = true
	p.Severities = []float64{0, 0.5, 1}
	for _, seed := range []int64{1, 99} {
		p.BaseSeed = seed
		fig, err := Run("faultsweep", Params{Faults: p})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(fig.Series) == 0 {
			t.Fatalf("seed %d: empty figure", seed)
		}
	}
}

// TestFaultSweepSeverityOrder pins the row-order contract: the row
// canonicalizes Severities (sorted ascending, duplicates collapsed), so
// an unsorted, repetitive severity slice yields exactly the figure its
// sorted set would — point for point, including replicated-run stddevs.
func TestFaultSweepSeverityOrder(t *testing.T) {
	p := DefaultFaults()
	p.Scale(0.1, 2)
	p.Severities = []float64{1, 0.5, 0, 0.5, 1, 1}
	messy, err := Run("faultsweep", Params{Faults: p})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 0.5, 0, 0.5, 1, 1}; !reflect.DeepEqual(p.Severities, want) {
		t.Fatalf("the sweep mutated the caller's Severities: %v", p.Severities)
	}
	p.Severities = []float64{0, 0.5, 1}
	clean, err := Run("faultsweep", Params{Faults: p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(messy, clean) {
		t.Fatalf("row order depends on severity slice presentation:\nmessy %+v\nclean %+v", messy, clean)
	}
	for _, s := range messy.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %q has %d points, want 3 (one per distinct severity): %+v", s.Label, len(s.Points), s.Points)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].X <= s.Points[i-1].X {
				t.Fatalf("series %q rows not strictly ascending in severity: %+v", s.Label, s.Points)
			}
		}
	}
}

func TestFaultSweepScale(t *testing.T) {
	p := DefaultFaults()
	p.Scale(0.01, 1)
	if p.Count < 20 {
		t.Fatalf("Count = %d, want the floor of 20", p.Count)
	}
	if p.Runs != 1 {
		t.Fatalf("Runs = %d", p.Runs)
	}
}
