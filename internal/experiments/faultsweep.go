package experiments

import (
	"fmt"
	"sort"

	"rtlock/internal/audit"
	"rtlock/internal/dist"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

// FaultParams configures the graceful-degradation sweep: the Figures 4–6
// setting (three sites, memory-resident database, 50/50 mix) rerun under
// generated fault plans of increasing severity. Severity 0 is the
// fault-free baseline; each higher point crashes more sites for longer
// and loses, duplicates, and delays more messages.
type FaultParams struct {
	Sites            int
	DBSize           int
	CPUPerObj        sim.Duration
	MeanInterarrival sim.Duration
	SlackMin         float64
	SlackMax         float64
	MeanSize         int
	ReadOnlyFrac     float64
	Count            int
	Runs             int
	// Severities is the swept fault severity in [0, 1].
	Severities []float64
	BaseSeed   int64
	// Audit records a replay journal for every run and replays it
	// through the fault-aware invariant auditors; any violation fails
	// the sweep.
	Audit bool
}

// DefaultFaults returns the calibrated configuration.
func DefaultFaults() FaultParams {
	return FaultParams{
		Sites:            3,
		DBSize:           200,
		CPUPerObj:        10 * sim.Millisecond,
		MeanInterarrival: 30 * sim.Millisecond,
		SlackMin:         4,
		SlackMax:         8,
		MeanSize:         6,
		ReadOnlyFrac:     0.5,
		Count:            300,
		Runs:             8,
		Severities:       []float64{0, 0.25, 0.5, 0.75, 1},
		BaseSeed:         1,
	}
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p FaultParams) Scale(countFrac float64, runs int) FaultParams {
	p.Count = int(float64(p.Count) * countFrac)
	if p.Count < 20 {
		p.Count = 20
	}
	p.Runs = runs
	return p
}

// horizon estimates the run's active window for plan generation: the
// last arrival lands around Count x MeanInterarrival, and the generator
// places every fault inside the first 85% of the horizon, so crashes
// and partitions hit live load rather than the drained tail.
func (p FaultParams) horizon() int64 {
	return int64(sim.Duration(p.Count) * p.MeanInterarrival)
}

// runFault executes one faulted distributed run and returns its summary
// and message-layer report.
func runFault(p FaultParams, mode dist.Mode, severity float64, seed int64) (stats.Summary, stats.NetReport, error) {
	plan, err := faults.Generate(seed, faults.GenParams{
		Sites:    p.Sites,
		Horizon:  p.horizon(),
		Severity: severity,
	})
	if err != nil {
		return stats.Summary{}, stats.NetReport{}, err
	}
	var jrn *journal.Journal
	if p.Audit {
		jrn = journal.New(seed, fmt.Sprintf("faultsweep/%s/sev=%g/%s", mode, severity, plan))
	}
	c, err := dist.NewCluster(dist.Config{
		Mode:      mode,
		Sites:     p.Sites,
		Objects:   p.DBSize,
		CommDelay: 2 * p.CPUPerObj,
		CPUPerObj: p.CPUPerObj,
		Journal:   jrn,
	})
	if err != nil {
		return stats.Summary{}, stats.NetReport{}, err
	}
	if err := c.AttachFaults(plan, seed); err != nil {
		return stats.Summary{}, stats.NetReport{}, err
	}
	load, err := workload.Generate(workload.Params{
		Seed:             seed,
		Catalog:          c.Catalog,
		Count:            p.Count,
		MeanInterarrival: p.MeanInterarrival,
		MeanSize:         p.MeanSize,
		ReadOnlyFrac:     p.ReadOnlyFrac,
		PerObjCost:       p.CPUPerObj,
		SlackMin:         p.SlackMin,
		SlackMax:         p.SlackMax,
		LocalWriteSets:   mode.LocalWriteSets(),
	})
	if err != nil {
		return stats.Summary{}, stats.NetReport{}, err
	}
	c.Load(load)
	sum := c.Run()
	if jrn != nil {
		auds := audit.ForPlacement(mode.String())
		if !plan.Empty() {
			auds = audit.ForFaults(mode.String())
		}
		if vs := audit.Run(jrn, auds...); len(vs) > 0 {
			return sum, stats.NetReport{}, fmt.Errorf("experiments: %s sev=%g seed=%d: %d invariant violations, first: %s",
				mode, severity, seed, len(vs), vs[0])
		}
	}
	return sum, c.NetReport(), nil
}

// canonicalSeverities returns p.Severities sorted ascending with exact
// duplicates removed, so the sweep's row order is a function of the
// severity set alone — not of the order or repetition the caller wrote
// the slice in. The input slice is never mutated.
func canonicalSeverities(sevs []float64) []float64 {
	out := make([]float64, len(sevs))
	copy(out, sevs)
	sort.Float64s(out)
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || s != dedup[len(dedup)-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

// FaultSweep measures graceful degradation: %missed versus fault
// severity for both distributed architectures, with the message loss
// rate alongside. The fault-free point anchors the curves to the
// Figures 4–6 results; every faulted run still passes the fault-aware
// invariant auditors when Audit is set — degraded, never incorrect.
// Severities are canonicalized (sorted, deduplicated) before the sweep,
// so two parameter sets naming the same severity values produce
// identical figures row for row.
func FaultSweep(p FaultParams) (Figure, error) {
	severities := canonicalSeverities(p.Severities)
	fig := Figure{
		Name:   "faultsweep",
		Title:  "Graceful degradation under injected faults",
		XLabel: "severity",
		YLabel: "% missed",
	}
	for _, mode := range []dist.Mode{dist.Global, dist.Local} {
		s := Series{Label: mode.String()}
		loss := Series{Label: mode.String() + ",%msgs lost"}
		for _, sev := range severities {
			sev := sev
			nets := make([]stats.NetReport, p.Runs)
			sums, err := collectRuns(p.Runs, func(r int) (stats.Summary, error) {
				sum, net, err := runFault(p, mode, sev, p.BaseSeed+int64(r)*7919)
				nets[r] = net
				return sum, err
			})
			if err != nil {
				return fig, err
			}
			mean, std := stats.MeanStd(missedOf(sums))
			s.Points = append(s.Points, Point{X: sev, Y: mean, Std: std, Runs: p.Runs})
			lost := make([]float64, len(nets))
			for i, n := range nets {
				if n.Sent > 0 {
					lost[i] = 100 * float64(n.Lost()) / float64(n.Sent)
				}
			}
			lm, ls := stats.MeanStd(lost)
			loss.Points = append(loss.Points, Point{X: sev, Y: lm, Std: ls, Runs: p.Runs})
		}
		fig.Series = append(fig.Series, s, loss)
	}
	return fig, nil
}
