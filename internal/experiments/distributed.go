package experiments

import (
	"fmt"
	"math"
	"sort"

	"rtlock/internal/audit"
	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

// DistParams configures the distributed experiments (Figures 4–6): three
// fully interconnected sites, a memory-resident database (no I/O cost),
// update transactions assigned to the site of their write set, read-only
// transactions distributed randomly, and a swept communication delay
// measured in "time units" (one unit is the per-object CPU cost).
type DistParams struct {
	Sites            int
	DBSize           int
	CPUPerObj        sim.Duration
	MeanInterarrival sim.Duration
	SlackMin         float64
	SlackMax         float64
	MeanSize         int
	Count            int
	Runs             int
	// Mixes is the swept fraction of read-only transactions.
	Mixes []float64
	// DelayUnits is the swept communication delay, in units of
	// CPUPerObj.
	DelayUnits []float64
	// Fig6Delays picks the two delays (same units) whose curves
	// Figure 6 shows.
	Fig6Delays []float64
	BaseSeed   int64
	// Audit records a replay journal for every run and replays it
	// through the approach's invariant auditors; any violation fails
	// the run.
	Audit bool
}

// DefaultDistributed returns the calibrated configuration.
func DefaultDistributed() DistParams {
	return DistParams{
		Sites:            3,
		DBSize:           200,
		CPUPerObj:        10 * sim.Millisecond,
		MeanInterarrival: 30 * sim.Millisecond,
		SlackMin:         4,
		SlackMax:         8,
		MeanSize:         6,
		Count:            300,
		Runs:             8,
		Mixes:            []float64{0, 0.25, 0.5, 0.75, 1},
		DelayUnits:       []float64{0, 0.5, 1, 2, 4, 6, 8, 10},
		Fig6Delays:       []float64{2, 8},
		BaseSeed:         1,
	}
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p DistParams) Scale(countFrac float64, runs int) DistParams {
	p.Count = int(float64(p.Count) * countFrac)
	if p.Count < 20 {
		p.Count = 20
	}
	p.Runs = runs
	return p
}

// cell is the averaged result of one (approach, mix, delay) grid cell.
type cell struct {
	thpt, thptStd   float64
	missed, missStd float64
}

// runDist executes one distributed run.
func runDist(p DistParams, mode dist.Mode, mix, delayUnits float64, seed int64) (stats.Summary, error) {
	var jrn *journal.Journal
	if p.Audit {
		jrn = journal.New(seed, fmt.Sprintf("dist/%s/mix=%g/delay=%g", mode, mix, delayUnits))
	}
	c, err := dist.NewCluster(dist.Config{
		Mode:      mode,
		Sites:     p.Sites,
		Objects:   p.DBSize,
		CommDelay: sim.Duration(delayUnits * float64(p.CPUPerObj)),
		CPUPerObj: p.CPUPerObj,
		Journal:   jrn,
	})
	if err != nil {
		return stats.Summary{}, err
	}
	load, err := workload.Generate(workload.Params{
		Seed:             seed,
		Catalog:          c.Catalog,
		Count:            p.Count,
		MeanInterarrival: p.MeanInterarrival,
		MeanSize:         p.MeanSize,
		ReadOnlyFrac:     mix,
		PerObjCost:       p.CPUPerObj,
		SlackMin:         p.SlackMin,
		SlackMax:         p.SlackMax,
		LocalWriteSets:   mode.LocalWriteSets(),
	})
	if err != nil {
		return stats.Summary{}, err
	}
	c.Load(load)
	sum := c.Run()
	if jrn != nil {
		if vs := audit.Run(jrn, audit.ForPlacement(mode.String())...); len(vs) > 0 {
			return sum, fmt.Errorf("experiments: %s mix=%g delay=%g seed=%d: %d invariant violations, first: %s",
				mode, mix, delayUnits, seed, len(vs), vs[0])
		}
	}
	return sum, nil
}

// runGrid evaluates one grid cell averaged over runs.
func runGrid(p DistParams, mode dist.Mode, mix, delayUnits float64) (cell, error) {
	sums, err := collectRuns(p.Runs, func(r int) (stats.Summary, error) {
		return runDist(p, mode, mix, delayUnits, p.BaseSeed+int64(r)*7919)
	})
	if err != nil {
		return cell{}, err
	}
	var c cell
	c.thpt, c.thptStd = stats.MeanStd(throughputOf(sums))
	c.missed, c.missStd = stats.MeanStd(missedOf(sums))
	return c, nil
}

// DistributedSweep runs the full grid once and derives Figures 4, 5 and 6.
//
//   - Figure 4: ratio of local-approach to global-approach throughput vs
//     transaction mix, one series per communication delay (the paper
//     reports the local approach 1.5–3× ahead even at delay 0).
//   - Figure 5: ratio of global-approach to local-approach %missed vs
//     communication delay at the 50/50 mix.
//   - Figure 6: %missed vs mix for two specific delays, both approaches.
func DistributedSweep(p DistParams) (fig4, fig5, fig6 Figure, err error) {
	type key struct {
		mode  dist.Mode
		mix   float64
		delay float64
	}
	grid := make(map[key]cell)

	// Delays needed: Figure 4 uses a subset (every other delay to keep
	// series readable); Figure 5 needs the whole delay axis at mix 0.5;
	// Figure 6 needs its two delays across all mixes.
	fig4Delays := pickFig4Delays(p.DelayUnits)
	need := make(map[key]struct{})
	for _, a := range []dist.Mode{dist.Global, dist.Local} {
		for _, d := range fig4Delays {
			for _, mx := range p.Mixes {
				need[key{a, mx, d}] = struct{}{}
			}
		}
		for _, d := range p.DelayUnits {
			need[key{a, 0.5, d}] = struct{}{}
		}
		for _, d := range p.Fig6Delays {
			for _, mx := range p.Mixes {
				need[key{a, mx, d}] = struct{}{}
			}
		}
	}
	// Sweep the grid in a fixed order. Each cell builds its own kernel,
	// so results are per-cell deterministic either way, but map order
	// would still reorder progress output and first-error selection.
	cells := make([]key, 0, len(need))
	for k := range need {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.mode != b.mode {
			return a.mode < b.mode
		}
		if a.mix != b.mix {
			return a.mix < b.mix
		}
		return a.delay < b.delay
	})
	for _, k := range cells {
		c, err2 := runGrid(p, k.mode, k.mix, k.delay)
		if err2 != nil {
			return fig4, fig5, fig6, err2
		}
		grid[k] = c
	}

	fig4 = Figure{
		Name:   "fig4",
		Title:  "Transaction Throughput Ratio (local/global)",
		XLabel: "%read-only",
		YLabel: "throughput(local)/throughput(global)",
	}
	for _, d := range fig4Delays {
		s := Series{Label: fmt.Sprintf("delay=%g", d)}
		for _, mx := range p.Mixes {
			g := grid[key{dist.Global, mx, d}]
			l := grid[key{dist.Local, mx, d}]
			s.Points = append(s.Points, Point{X: 100 * mx, Y: ratio(l.thpt, g.thpt), Runs: p.Runs})
		}
		fig4.Series = append(fig4.Series, s)
	}

	fig5 = Figure{
		Name:   "fig5",
		Title:  "Deadline Missing Ratio (global/local) at 50% read-only",
		XLabel: "delay",
		YLabel: "%missed(global)/%missed(local)",
	}
	s5 := Series{Label: "global/local"}
	for _, d := range p.DelayUnits {
		g := grid[key{dist.Global, 0.5, d}]
		l := grid[key{dist.Local, 0.5, d}]
		s5.Points = append(s5.Points, Point{X: d, Y: missRatio(g.missed, l.missed, p), Runs: p.Runs})
	}
	fig5.Series = []Series{s5}

	fig6 = Figure{
		Name:   "fig6",
		Title:  "Deadline Missing Transaction Percentage (distributed)",
		XLabel: "%read-only",
		YLabel: "% missed",
	}
	for _, d := range p.Fig6Delays {
		for _, a := range []dist.Mode{dist.Global, dist.Local} {
			s := Series{Label: fmt.Sprintf("%s,delay=%g", a, d)}
			for _, mx := range p.Mixes {
				c := grid[key{a, mx, d}]
				s.Points = append(s.Points, Point{X: 100 * mx, Y: c.missed, Std: c.missStd, Runs: p.Runs})
			}
			fig6.Series = append(fig6.Series, s)
		}
	}
	return fig4, fig5, fig6, nil
}

// Fig4 reproduces the throughput-ratio figure alone.
func Fig4(p DistParams) (Figure, error) {
	f4, _, _, err := DistributedSweep(p)
	return f4, err
}

// Fig5 reproduces the deadline-missing-ratio figure alone.
func Fig5(p DistParams) (Figure, error) {
	_, f5, _, err := DistributedSweep(p)
	return f5, err
}

// Fig6 reproduces the distributed %missed figure alone.
func Fig6(p DistParams) (Figure, error) {
	_, _, f6, err := DistributedSweep(p)
	return f6, err
}

// ConsistencyAblation quantifies the paper's closing §4 idea: reading
// each replica's latest copy risks temporally inconsistent views (the
// set of versions read could never have coexisted), while multi-version
// snapshot reads pin every read-only transaction to one instant. It
// sweeps the communication delay at a read-heavy mix and reports the
// percentage of multi-read read-only transactions whose views were
// inconsistent, for latest-copy reads versus snapshot reads.
func ConsistencyAblation(p DistParams) (Figure, error) {
	fig := Figure{
		Name:   "consistency",
		Title:  "Temporal consistency of read-only views (local approach)",
		XLabel: "delay",
		YLabel: "% inconsistent views",
	}
	for _, mode := range []struct {
		label string
		mv    bool
	}{{"latest", false}, {"snapshot", true}} {
		s := Series{Label: mode.label}
		for _, d := range p.DelayUnits {
			d := d
			sums, err := collectRuns(p.Runs, func(r int) (stats.Summary, error) {
				c, err := dist.NewCluster(dist.Config{
					Mode:         dist.Local,
					Sites:        p.Sites,
					Objects:      p.DBSize,
					CommDelay:    sim.Duration(d * float64(p.CPUPerObj)),
					CPUPerObj:    p.CPUPerObj,
					Multiversion: mode.mv,
				})
				if err != nil {
					return stats.Summary{}, err
				}
				load, err := workload.Generate(workload.Params{
					Seed:             p.BaseSeed + int64(r)*7919,
					Catalog:          c.Catalog,
					Count:            p.Count,
					MeanInterarrival: p.MeanInterarrival,
					MeanSize:         p.MeanSize,
					ReadOnlyFrac:     0.7,
					PerObjCost:       p.CPUPerObj,
					SlackMin:         p.SlackMin,
					SlackMax:         p.SlackMax,
					LocalWriteSets:   true,
				})
				if err != nil {
					return stats.Summary{}, err
				}
				c.Load(load)
				c.Run()
				repl := c.Replication()
				classified := repl.ConsistentViews + repl.InconsistentViews
				pct := 0.0
				if classified > 0 {
					pct = 100 * float64(repl.InconsistentViews) / float64(classified)
				}
				// Smuggle the inconsistency percentage through the
				// summary's MissedPct slot for uniform aggregation.
				return stats.Summary{MissedPct: pct}, nil
			})
			if err != nil {
				return fig, err
			}
			mean, std := stats.MeanStd(missedOf(sums))
			s.Points = append(s.Points, Point{X: d, Y: mean, Std: std, Runs: p.Runs})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// PlacementAblation studies where to put the global ceiling manager on a
// non-uniform interconnect: a star network with the GCM either at the
// hub (one link from everyone) or at a leaf (two links from the other
// leaves). The paper notes all ceiling information lives "at the site of
// the global ceiling manager"; placement is the first operational
// question that raises.
func PlacementAblation(p DistParams) (Figure, error) {
	fig := Figure{
		Name:   "placement",
		Title:  "GCM placement on a star interconnect: %missed",
		XLabel: "link delay",
		YLabel: "% missed",
	}
	for _, placement := range []struct {
		label string
		gcm   db.SiteID
	}{{"hub", 0}, {"leaf", 1}} {
		s := Series{Label: placement.label}
		for _, d := range p.DelayUnits {
			link := sim.Duration(d * float64(p.CPUPerObj))
			sums, err := collectRuns(p.Runs, func(r int) (stats.Summary, error) {
				topo, err := netsim.Star(p.Sites, 0, link)
				if err != nil {
					return stats.Summary{}, err
				}
				c, err := dist.NewCluster(dist.Config{
					Mode:      dist.Global,
					Sites:     p.Sites,
					Objects:   p.DBSize,
					Topology:  topo,
					GCMSite:   placement.gcm,
					CPUPerObj: p.CPUPerObj,
				})
				if err != nil {
					return stats.Summary{}, err
				}
				load, err := workload.Generate(workload.Params{
					Seed:             p.BaseSeed + int64(r)*7919,
					Catalog:          c.Catalog,
					Count:            p.Count,
					MeanInterarrival: p.MeanInterarrival,
					MeanSize:         p.MeanSize,
					ReadOnlyFrac:     0.5,
					PerObjCost:       p.CPUPerObj,
					SlackMin:         p.SlackMin,
					SlackMax:         p.SlackMax,
					LocalWriteSets:   true,
				})
				if err != nil {
					return stats.Summary{}, err
				}
				c.Load(load)
				return c.Run(), nil
			})
			if err != nil {
				return fig, err
			}
			mean, std := stats.MeanStd(missedOf(sums))
			s.Points = append(s.Points, Point{X: d, Y: mean, Std: std, Runs: p.Runs})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// pickFig4Delays thins the delay axis for Figure 4's per-delay series to
// the small-delay regime, where both approaches still process most of
// their load (at large delays the global approach saturates and the
// ratio diverges; Figure 5 covers that regime).
func pickFig4Delays(delays []float64) []float64 {
	if len(delays) <= 4 {
		return delays
	}
	return delays[:4]
}

// ratio guards against division by zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// missRatio compares miss percentages with light smoothing: a run of
// Count transactions cannot resolve rates below one miss, so both sides
// are floored at half a transaction's worth, keeping the ratio finite as
// the paper's plots are.
func missRatio(global, local float64, p DistParams) float64 {
	floor := 100 * 0.5 / float64(p.Count)
	if local < floor {
		local = floor
	}
	if global < floor {
		global = floor
	}
	return global / local
}
