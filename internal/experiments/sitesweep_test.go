package experiments

import (
	"math"
	"testing"

	"rtlock/internal/place"
)

func TestSiteSweepSmall(t *testing.T) {
	p := DefaultSiteSweep()
	p.Scale(0.15, 2)
	p.Sites = []int{1, 2, 4}
	p.Audit = true
	figs := figures(t, Params{SiteSweep: p}, "sites-throughput", "sites-missed", "consistency-tax")
	thpt, missed, tax := figs[0], figs[1], figs[2]
	if len(thpt.Series) != 4 || len(missed.Series) != 4 {
		t.Fatalf("series: thpt=%d missed=%d, want 4 policies each", len(thpt.Series), len(missed.Series))
	}
	// Tax figure: latency and throughput series for each coordinated
	// policy, every ratio finite and positive.
	if len(tax.Series) != 6 {
		t.Fatalf("tax series = %d, want 3 coordinated policies x 2 ratios", len(tax.Series))
	}
	for _, s := range tax.Series {
		if len(s.Points) != len(p.Sites) {
			t.Fatalf("%s: %d points, want %d", s.Label, len(s.Points), len(p.Sites))
		}
		for _, pt := range s.Points {
			if math.IsNaN(pt.Y) || math.IsInf(pt.Y, 0) || pt.Y <= 0 {
				t.Fatalf("%s at sites=%g: tax ratio %v", s.Label, pt.X, pt.Y)
			}
		}
	}
	for _, pol := range place.Policies() {
		if _, ok := tax.SeriesByLabel(pol.String() + "/latency"); !ok && pol != place.PrimaryOnly {
			t.Fatalf("missing latency tax series for %s", pol)
		}
	}
}

// TestSiteSweepBaselineCheaper pins the economic direction of the tax:
// coordination cannot beat no-coordination on latency at multi-site
// counts, so the latency tax of the 2PC policies stays >= 1 within
// noise.
func TestSiteSweepBaselineCheaper(t *testing.T) {
	p := DefaultSiteSweep()
	p.Scale(0.15, 2)
	p.Sites = []int{4}
	tax := figure(t, "consistency-tax", Params{SiteSweep: p})
	for _, label := range []string{"shard/latency", "quorum/latency"} {
		s, ok := tax.SeriesByLabel(label)
		if !ok {
			t.Fatalf("missing series %s", label)
		}
		if s.Points[0].Y < 0.95 {
			t.Fatalf("%s = %v, expected coordination to cost latency (>= ~1)", label, s.Points[0].Y)
		}
	}
}
