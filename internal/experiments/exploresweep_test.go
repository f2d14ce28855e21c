package experiments

import (
	"testing"

	"rtlock/internal/core"
)

// TestExploreSweepSmall runs the sweep at a tiny budget over two
// protocols and checks the figure's shape.
func TestExploreSweepSmall(t *testing.T) {
	p := ExploreParams{
		Protocols: []Protocol{core.ProtoCeiling, core.ProtoTwoPLPrio},
		Budgets:   []int{4, 8},
		MaxDepth:  12,
		Branch:    2,
		Workers:   2,
	}
	fig, err := ExploreSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points, want 2", s.Label, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.Y <= 0 {
				t.Errorf("series %s explored no distinct schedules at budget %g", s.Label, pt.X)
			}
		}
	}
}

// TestExploreSweepCleanTreeAllProtocols is the clean-tree soak: every
// protocol of the study plus both distributed architectures explores a
// small schedule budget with zero invariant violations. This is the CI
// smoke run's in-tree twin.
func TestExploreSweepCleanTreeAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short")
	}
	p := DefaultExplore()
	p.Budgets = []int{10}
	if _, err := ExploreSweep(p); err != nil {
		t.Fatal(err)
	}
}

// TestExploreSweepSeedDeterministic: the sweep's figure is identical
// across runs for a fixed configuration.
func TestExploreSweepSeedDeterministic(t *testing.T) {
	p := ExploreParams{Protocols: []Protocol{ProtoCeiling}, Budgets: []int{6}, MaxDepth: 12, Branch: 2, Workers: 3}
	a, err := ExploreSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Fatalf("sweep not deterministic:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
}

// TestExploreTargetsCoverDistributed: the target list includes both
// distributed architectures when asked.
func TestExploreTargetsCoverDistributed(t *testing.T) {
	targets, err := exploreTargets(DefaultExplore())
	if err != nil {
		t.Fatal(err)
	}
	want := len(AllProtocols()) + 2
	if len(targets) != want {
		t.Fatalf("got %d targets, want %d", len(targets), want)
	}
	var dist int
	for _, tgt := range targets {
		if tgt.Name == "dist/local" || tgt.Name == "dist/global" {
			dist++
		}
	}
	if dist != 2 {
		names := make([]string, 0, len(targets))
		for _, tgt := range targets {
			names = append(names, tgt.Name)
		}
		t.Fatalf("distributed targets missing from %v", names)
	}
}
