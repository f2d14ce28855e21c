package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTableNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, name := range Names(ByName) {
		if seen[name] {
			t.Errorf("duplicate table row %q", name)
		}
		seen[name] = true
	}
	if paper, all := len(Names(InPaper)), len(Names(InAll)); paper != 8 || all != 18 {
		t.Errorf("paper set has %d rows and all has %d, want 8 and 18", paper, all)
	}
	if _, err := Run("nope", DefaultParams()); err == nil || !strings.Contains(err.Error(), "fig2") {
		t.Errorf("unknown name error %v does not list the choices", err)
	}
}

// scaledParams is every family at a tenth of its run length, one run per
// cell.
func scaledParams() Params {
	p := DefaultParams()
	for _, s := range []*Schedule{&p.Single.Schedule, &p.Dist.Schedule, &p.SiteSweep.Schedule, &p.Faults.Schedule} {
		s.Scale(0.1, 1)
	}
	return p
}

// TestEveryRowRuns evaluates the whole table at a tenth of the run
// length: every row resolves, every series has a point per x.
func TestEveryRowRuns(t *testing.T) {
	p := scaledParams()
	sw := NewSweep(p)
	for _, r := range table {
		fig, err := sw.Figure(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) == 0 {
			t.Errorf("%s: no series", r.Name)
		}
		for _, s := range fig.Series {
			if len(s.Points) == 0 || len(s.Points) != len(r.xs(&p)) {
				t.Errorf("%s/%s: %d points for %d x values", r.Name, s.Label, len(s.Points), len(r.xs(&p)))
			}
		}
	}
}

// cellsOf evaluates the named figures in one sweep and returns the cells
// it ran.
func cellsOf(t *testing.T, p Params, names ...string) map[cell][]*Result {
	t.Helper()
	sw := NewSweep(p)
	for _, name := range names {
		if _, err := sw.Figure(name); err != nil {
			t.Fatal(err)
		}
	}
	return sw.memo
}

// TestFigureAloneRunsOnlyItsCells: fig4 on its own runs the two
// approaches over its thinned delay axis and nothing that only fig5 (the
// large delays) or fig6 (delay 8 across the mixes) plots.
func TestFigureAloneRunsOnlyItsCells(t *testing.T) {
	p := Params{Dist: DefaultDistributed()}
	p.Dist.Scale(0.1, 1)
	alone := cellsOf(t, p, "fig4")
	if want := 2 * len(p.Dist.fig4Delays()) * len(p.Dist.Mixes); len(alone) != want {
		t.Fatalf("fig4 alone ran %d cells, want %d", len(alone), want)
	}
	maxDelay := p.Dist.fig4Delays()[3]
	for c := range alone {
		if d := c.(distCell).delay; d > maxDelay {
			t.Errorf("fig4 alone ran %+v, beyond its delay axis", c)
		}
	}
	// The family together shares cells: 40 for fig4, 8 more for fig5's
	// large delays, 8 more for fig6's delay 8 off the 50/50 mix.
	if family := cellsOf(t, p, "fig4", "fig5", "fig6"); len(family) != 56 {
		t.Errorf("fig4+fig5+fig6 ran %d cells, want 56", len(family))
	}
}

// TestAllRunsEachDistinctCellOnce: the cells `all` runs are the union of
// what its figures run alone, far fewer than their sum.
func TestAllRunsEachDistinctCellOnce(t *testing.T) {
	p := scaledParams()
	names := Names(InAll)
	union := make(map[cell]bool)
	sum := 0
	for _, name := range names {
		alone := cellsOf(t, p, name)
		sum += len(alone)
		for c := range alone {
			union[c] = true
		}
	}
	all := cellsOf(t, p, names...)
	if len(all) != len(union) {
		t.Errorf("all ran %d cells, the figures alone cover %d distinct ones", len(all), len(union))
	}
	if len(all) >= sum {
		t.Errorf("all ran %d cells, no fewer than the %d its figures run separately", len(all), sum)
	}
}

// countingCell counts its executions.
type countingCell struct{ n *atomic.Int32 }

func (c countingCell) schedule() (int, int64, bool) { return 3, 1, false }
func (c countingCell) run(int64, bool) (*Result, error) {
	c.n.Add(1)
	return &Result{}, nil
}

func TestSweepMemoizesCells(t *testing.T) {
	c := countingCell{new(atomic.Int32)}
	sw := NewSweep(Params{})
	for i := 0; i < 2; i++ {
		if outs, err := sw.runs(c); err != nil || len(outs) != 3 {
			t.Fatalf("runs = %d outcomes, %v", len(outs), err)
		}
	}
	if got := c.n.Load(); got != 3 {
		t.Fatalf("cell requested twice executed %d runs, want its 3 once", got)
	}
}

// TestDesignIndexListsEveryRow keeps DESIGN.md's per-experiment index in
// step with the table.
func TestDesignIndexListsEveryRow(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "## Per-experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no Per-experiment index section")
	}
	if next := strings.Index(index, "\n## "); next >= 0 {
		index = index[:next]
	}
	for _, name := range Names(ByName) {
		if !strings.Contains(index, "-experiment "+name+"`") {
			t.Errorf("DESIGN.md Per-experiment index does not mention `-experiment %s`", name)
		}
	}
}
