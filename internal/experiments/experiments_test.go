package experiments

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/explore"
	"rtlock/internal/stats"
)

// scaled single-site parameters keep the suite fast while preserving the
// qualitative shapes the assertions check.
func scaledSingle() SingleSiteParams {
	p := DefaultSingleSite()
	p.Count = 120
	p.Runs = 2
	p.Sizes = []int{4, 12, 20}
	return p
}

func scaledDist() DistParams {
	p := DefaultDistributed()
	p.Count = 80
	p.Runs = 2
	p.Mixes = []float64{0, 0.5, 1}
	p.DelayUnits = []float64{0, 2, 8}
	p.Fig6Delays = []float64{2, 8}
	return p
}

// figures evaluates table rows by name in one sweep, failing the test on
// error.
func figures(t *testing.T, p Params, names ...string) []Figure {
	t.Helper()
	sw := NewSweep(p)
	figs := make([]Figure, len(names))
	for i, name := range names {
		var err error
		if figs[i], err = sw.Figure(name); err != nil {
			t.Fatal(err)
		}
	}
	return figs
}

func figure(t *testing.T, name string, p Params) Figure {
	t.Helper()
	return figures(t, p, name)[0]
}

func last(s Series) Point  { return s.Points[len(s.Points)-1] }
func first(s Series) Point { return s.Points[0] }

func TestFig2Shapes(t *testing.T) {
	f2 := figure(t, "fig2", Params{Single: scaledSingle()})
	c, okC := f2.SeriesByLabel("C")
	p, okP := f2.SeriesByLabel("P")
	l, okL := f2.SeriesByLabel("L")
	if !okC || !okP || !okL {
		t.Fatalf("missing series in %v", f2)
	}
	// Headline: at the largest size the ceiling protocol sustains
	// higher normalized throughput than both 2PL variants.
	if last(c).Y <= last(p).Y || last(c).Y <= last(l).Y {
		t.Fatalf("at size 20, C throughput %.1f must exceed P %.1f and L %.1f",
			last(c).Y, last(p).Y, last(l).Y)
	}
	// Stability: C's throughput at size 20 stays within a factor of
	// two of its mid-size value; P and L fall much further from their
	// own mid-size values.
	if last(c).Y < c.Points[1].Y/2 {
		t.Fatalf("C throughput collapsed: %v", c.Points)
	}
	if last(p).Y > p.Points[1].Y/2 {
		t.Fatalf("P throughput did not degrade rapidly: %v", p.Points)
	}
}

func TestFig3Shapes(t *testing.T) {
	f3 := figure(t, "fig3", Params{Single: scaledSingle()})
	c, _ := f3.SeriesByLabel("C")
	p, _ := f3.SeriesByLabel("P")
	l, _ := f3.SeriesByLabel("L")
	// At the largest size the ceiling protocol misses far fewer
	// deadlines.
	if last(c).Y >= last(p).Y || last(c).Y >= last(l).Y {
		t.Fatalf("at size 20, C missed %.1f%% must be below P %.1f%% and L %.1f%%",
			last(c).Y, last(p).Y, last(l).Y)
	}
	// Misses rise with size for every protocol.
	for _, s := range []Series{c, p, l} {
		if last(s).Y < first(s).Y {
			t.Fatalf("%s misses did not rise with size: %v", s.Label, s.Points)
		}
	}
	// The rise is sharp for 2PL: the largest size at least quadruples
	// the smallest-size misses plus a base.
	if last(p).Y < 4*first(p).Y+10 {
		t.Fatalf("P misses did not rise sharply: %v", p.Points)
	}
}

func TestDistributedShapes(t *testing.T) {
	figs := figures(t, Params{Dist: scaledDist()}, "fig4", "fig5", "fig6")
	f4, f5, f6 := figs[0], figs[1], figs[2]

	// Figure 4: at the update-heavy mix the local approach wins at
	// every delay, and the advantage grows with delay.
	for _, s := range f4.Series {
		if first(s).Y <= 1 && s.Label != "delay=0" {
			t.Fatalf("series %s: local/global ratio %.2f not > 1 at mix 0", s.Label, first(s).Y)
		}
	}
	d0, _ := f4.SeriesByLabel("delay=0")
	dMax := f4.Series[len(f4.Series)-1]
	if dMax.Points[0].Y <= d0.Points[0].Y {
		t.Fatalf("throughput ratio did not grow with delay: %v vs %v", dMax.Points[0], d0.Points[0])
	}

	// Figure 5: the miss ratio favors local everywhere and grows from
	// delay 0 to the maximum delay.
	s5 := f5.Series[0]
	for _, pt := range s5.Points {
		if pt.Y < 1 {
			t.Fatalf("global/local miss ratio %.2f < 1 at delay %g", pt.Y, pt.X)
		}
	}
	if last(s5).Y <= first(s5).Y {
		t.Fatalf("miss ratio did not grow with delay: %v", s5.Points)
	}

	// Figure 6: local misses fewer deadlines than global at every mix
	// and delay; global misses are substantial under delay.
	for _, d := range []string{"2", "8"} {
		g, okG := f6.SeriesByLabel("global,delay=" + d)
		l, okL := f6.SeriesByLabel("local,delay=" + d)
		if !okG || !okL {
			t.Fatalf("missing fig6 series for delay %s", d)
		}
		for i := range g.Points {
			if l.Points[i].Y > g.Points[i].Y {
				t.Fatalf("delay %s mix %.0f: local %.1f%% > global %.1f%%",
					d, g.Points[i].X, l.Points[i].Y, g.Points[i].Y)
			}
		}
	}
}

func TestDBSizeAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "dbsize", Params{Single: p})
	// Bigger databases mean fewer conflicts: the 2PL curves fall from
	// the smallest database to the largest.
	for _, label := range []string{"P", "L"} {
		s, ok := f.SeriesByLabel(label)
		if !ok {
			t.Fatalf("missing series %s", label)
		}
		if last(s).Y > first(s).Y {
			t.Fatalf("%s misses rose with database size: %v", label, s.Points)
		}
	}
}

func TestSemanticsAblationRuns(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "semantics", Params{Single: p})
	c, okC := f.SeriesByLabel("C")
	cx, okCX := f.SeriesByLabel("CX")
	if !okC || !okCX {
		t.Fatal("missing series")
	}
	for _, s := range []Series{c, cx} {
		for _, pt := range s.Points {
			if pt.Y < 0 || pt.Y > 100 {
				t.Fatalf("%s: %%missed %v out of range", s.Label, pt)
			}
		}
	}
}

func TestInheritAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "inherit", Params{Single: p})
	c, _ := f.SeriesByLabel("C")
	pi, _ := f.SeriesByLabel("PI")
	// Basic inheritance still deadlocks and chains; at the largest size
	// the ceiling protocol misses fewer deadlines.
	if last(c).Y >= last(pi).Y {
		t.Fatalf("C %.1f%% not below PI %.1f%% at size 20", last(c).Y, last(pi).Y)
	}
}

func TestRestartAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "restart", Params{Single: p})
	hp, okHP := f.SeriesByLabel("HP")
	pp, okP := f.SeriesByLabel("P")
	if !okHP || !okP {
		t.Fatal("missing series")
	}
	// At the largest size, wounding resolves conflicts in favor of
	// urgency and beats blocking 2PL decisively.
	if last(hp).Y >= last(pp).Y {
		t.Fatalf("HP %.1f%% not below P %.1f%% at size 20", last(hp).Y, last(pp).Y)
	}
}

func TestPriorityPolicyAblationShape(t *testing.T) {
	p := scaledSingle()
	p.Sizes = []int{4, 12} // below saturation, where EDF dominates
	f := figure(t, "priority", Params{Single: p})
	edf, okE := f.SeriesByLabel("EDF")
	rnd, okR := f.SeriesByLabel("RANDOM")
	if !okE || !okR {
		t.Fatal("missing series")
	}
	if last(edf).Y > last(rnd).Y {
		t.Fatalf("EDF %.1f%% above RANDOM %.1f%% below saturation", last(edf).Y, last(rnd).Y)
	}
}

func TestBufferAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "buffer", Params{Single: p})
	c, ok := f.SeriesByLabel("C")
	if !ok {
		t.Fatal("missing series C")
	}
	// A buffer holding the whole database cannot be worse than no
	// buffer for the ceiling protocol, whose misses are driven by the
	// length of its serialized lock-holding windows.
	if last(c).Y > first(c).Y {
		t.Fatalf("C misses rose with buffer size: %v", c.Points)
	}
}

func TestHotspotAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "hotspot", Params{Single: p})
	c, _ := f.SeriesByLabel("C")
	pp, _ := f.SeriesByLabel("P")
	// Skew devastates direct-blocking 2PL but not the ceiling protocol.
	if last(pp).Y <= first(pp).Y {
		t.Fatalf("P misses did not rise with skew: %v", pp.Points)
	}
	if last(c).Y >= last(pp).Y {
		t.Fatalf("C %.1f%% not below P %.1f%% at max skew", last(c).Y, last(pp).Y)
	}
}

func TestPredictabilityAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "predictability", Params{Single: p})
	c, okC := f.SeriesByLabel("C")
	pp, okP := f.SeriesByLabel("P")
	if !okC || !okP {
		t.Fatal("missing series")
	}
	for _, s := range []Series{c, pp} {
		for _, pt := range s.Points {
			if pt.Y < 1 {
				t.Fatalf("%s: tail ratio %v below 1", s.Label, pt)
			}
		}
	}
	// At the largest (most contended) size the ceiling protocol has
	// the tighter tail.
	if last(c).Y >= last(pp).Y {
		t.Fatalf("C tail ratio %.2f not below P %.2f at size 20", last(c).Y, last(pp).Y)
	}
}

func TestConsistencyAblationShape(t *testing.T) {
	p := scaledDist()
	f := figure(t, "consistency", Params{Dist: p})
	latest, okL := f.SeriesByLabel("latest")
	snap, okS := f.SeriesByLabel("snapshot")
	if !okL || !okS {
		t.Fatal("missing series")
	}
	var latestSum, snapSum float64
	for i := range latest.Points {
		latestSum += latest.Points[i].Y
		snapSum += snap.Points[i].Y
	}
	if snapSum > latestSum {
		t.Fatalf("snapshot reads more inconsistent overall (%.2f vs %.2f)", snapSum, latestSum)
	}
}

func TestPlacementAblationShape(t *testing.T) {
	p := scaledDist()
	f := figure(t, "placement", Params{Dist: p})
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		for _, pt := range s.Points {
			if pt.Y < 0 || pt.Y > 100 {
				t.Fatalf("%s: %%missed %v out of range", s.Label, pt)
			}
		}
	}
}

func TestPeriodicAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "periodic", Params{Single: p})
	c, _ := f.SeriesByLabel("C")
	l, _ := f.SeriesByLabel("L")
	// Recurring access sets are the ceiling protocol's native model:
	// at full periodicity it must beat plain 2PL clearly.
	if last(c).Y >= last(l).Y {
		t.Fatalf("C %.1f%% not below L %.1f%% at 100%% periodic", last(c).Y, last(l).Y)
	}
}

func TestOverheadAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "overhead", Params{Single: p})
	for _, s := range f.Series {
		for _, pt := range s.Points {
			if pt.Y < 0 || pt.Y > 100 {
				t.Fatalf("%s: %v out of range", s.Label, pt)
			}
		}
		// More overhead can only consume capacity: the zero-overhead
		// point must not be the worst by a wide margin.
		if first(s).Y > last(s).Y+15 {
			t.Fatalf("%s: misses fell sharply with overhead: %v", s.Label, s.Points)
		}
	}
}

func TestRecoveryAblationShape(t *testing.T) {
	p := scaledSingle()
	f := figure(t, "recovery", Params{Single: p})
	rec, ok := f.SeriesByLabel("recovery_ms")
	if !ok {
		t.Fatal("missing recovery series")
	}
	// The no-checkpoint sentinel (last point) must have the longest
	// restart.
	lastPt := last(rec)
	for _, pt := range rec.Points[:len(rec.Points)-1] {
		if pt.Y >= lastPt.Y {
			t.Fatalf("checkpointed restart %v not below uncheckpointed %v", pt.Y, lastPt.Y)
		}
	}
	if _, ok := f.SeriesByLabel("missed_pct"); !ok {
		t.Fatal("missing missed series")
	}
}

func TestRunCustom(t *testing.T) {
	p := scaledSingle()
	p.Runs = 2
	sum, err := RunCustom(p, ProtoCeiling, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Processed == 0 {
		t.Fatal("no transactions processed")
	}
	if _, err := RunCustom(p, Protocol("bogus"), 8); err == nil {
		t.Fatal("bogus protocol accepted")
	}

	// Three runs merge into the totals of the counts and the means of
	// everything else, of the same three runs made one at a time.
	p.Runs = 3
	merged, err := RunCustom(p, core.ProtoTwoPLHP, 12)
	if err != nil {
		t.Fatal(err)
	}
	var want stats.Summary
	for r := int64(0); r < 3; r++ {
		one := p
		one.Runs, one.BaseSeed = 1, p.BaseSeed+r*7919
		s, err := RunCustom(one, core.ProtoTwoPLHP, 12)
		if err != nil {
			t.Fatal(err)
		}
		want.Processed += s.Processed
		want.Committed += s.Committed
		want.Missed += s.Missed
		want.Restarts += s.Restarts
		want.MissedPct += s.MissedPct
		want.Throughput += s.Throughput
		want.AvgBlocked += s.AvgBlocked
		want.AvgResp += s.AvgResp
		want.RespP50 += s.RespP50
		want.RespP99 += s.RespP99
		want.CPUUtil += s.CPUUtil
		want.IOUtil += s.IOUtil
	}
	if want.Restarts == 0 || want.AvgBlocked == 0 || want.RespP50 == 0 || want.CPUUtil == 0 || want.IOUtil == 0 {
		t.Fatalf("load too light to tell a dropped field from a zero one: %+v", want)
	}
	want.MissedPct /= 3
	want.Throughput /= 3
	want.AvgBlocked /= 3
	want.AvgResp /= 3
	want.RespP50 /= 3
	want.RespP99 /= 3
	want.CPUUtil /= 3
	want.IOUtil /= 3
	if merged != want {
		t.Errorf("3 merged runs = %+v\nwant %+v", merged, want)
	}
}

func TestFigureFormatting(t *testing.T) {
	f := Figure{
		Name:   "figX",
		Title:  "demo",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2, Std: 0.5}, {X: 2, Y: 3}}},
			{Label: "b,comma", Points: []Point{{X: 1, Y: 4}}},
		},
	}
	text := f.String()
	if !strings.Contains(text, "FIGX") || !strings.Contains(text, "demo") {
		t.Fatalf("table header missing: %s", text)
	}
	csv := f.CSV()
	if !strings.Contains(csv, `"b,comma"`) {
		t.Fatalf("CSV did not escape commas: %s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV rows = %d, want header + 2", len(lines))
	}
}

func TestSweepsDeterministicUnderParallelRuns(t *testing.T) {
	// Runs execute concurrently but aggregate by index; two identical
	// sweeps must render byte-identical CSV.
	p := Params{Single: scaledSingle(), Dist: scaledDist()}
	p.Single.Runs, p.Dist.Runs = 4, 4
	names := []string{"fig2", "fig3", "fig4", "fig5", "fig6"}
	a, b := figures(t, p, names...), figures(t, p, names...)
	for i, name := range names {
		if a[i].CSV() != b[i].CSV() {
			t.Fatalf("identical %s sweeps produced different figures", name)
		}
	}
}

// TestCollectRunsOrderAndErrors pins the pool the sweeps collect their
// runs on: outcomes in run order, the first error by run index, and
// zero runs a no-op.
func TestCollectRunsOrderAndErrors(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	outs, err := explore.RunBatch(8, workers, func(r int) (*Result, error) {
		return &Result{Summary: stats.Summary{Processed: r}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Summary.Processed != i {
			t.Fatalf("results out of order: %v", outs)
		}
	}
	if _, err := explore.RunBatch(4, workers, func(r int) (*Result, error) {
		if r == 2 {
			return nil, errBoom
		}
		return &Result{}, nil
	}); err != errBoom {
		t.Fatalf("error not surfaced: %v", err)
	}
	if outs, err := explore.RunBatch[*Result](0, workers, nil); err != nil || outs != nil {
		t.Fatal("zero runs must be a no-op")
	}
}

var errBoom = errors.New("boom")

func TestFigurePlot(t *testing.T) {
	f := Figure{
		Name:   "plotdemo",
		Title:  "demo",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Label: "up", Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 5}, {X: 2, Y: 10}}},
			{Label: "down", Points: []Point{{X: 0, Y: 10}, {X: 1, Y: 5}, {X: 2, Y: 0}}},
		},
	}
	p := f.Plot()
	if !strings.Contains(p, "*=up") || !strings.Contains(p, "o=down") {
		t.Fatalf("legend missing:\n%s", p)
	}
	// The crossing point is shared by both series.
	if !strings.Contains(p, "?") {
		t.Fatalf("overlap marker missing:\n%s", p)
	}
	if (Figure{}).Plot() == "" {
		t.Fatal("empty figure must still render a placeholder")
	}
	flat := Figure{Name: "flat", Series: []Series{{Label: "a", Points: []Point{{X: 1, Y: 3}, {X: 2, Y: 3}}}}}
	if flat.Plot() == "" {
		t.Fatal("flat series did not render")
	}
}

func TestScaleClampsCount(t *testing.T) {
	s := Schedule{Count: 300, Runs: 8}
	s.Scale(0.0001, 2)
	if s.Count != 20 || s.Runs != 2 {
		t.Fatalf("Scale produced %+v, want the floor of 20 transactions over 2 runs", s)
	}
}
