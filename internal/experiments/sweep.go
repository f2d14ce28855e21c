package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"rtlock/internal/explore"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
)

// Sweep evaluates rows of the figure table over one parameter set. It
// owns what the rows share: the seed schedule, the parallel runs, the
// audit check and the mean/std projection. Cells are memoized, so figures
// plotting the same configurations (fig2/fig3, fig4/5/6, the site-sweep
// three) run them once, and a figure requested alone runs only its own.
type Sweep struct {
	p    Params
	memo map[cell][]*Result
}

// NewSweep binds a parameter set.
func NewSweep(p Params) *Sweep {
	return &Sweep{p: p, memo: make(map[cell][]*Result)}
}

// Run evaluates one named figure on its own.
func Run(name string, p Params) (Figure, error) {
	return NewSweep(p).Figure(name)
}

// Figure evaluates the named row of the table.
func (sw *Sweep) Figure(name string) (Figure, error) {
	r, err := lookup(name)
	if err != nil {
		return Figure{}, err
	}
	fig := r.Figure
	xs := r.xs(&sw.p)
	for _, s := range r.series(&sw.p) {
		out := Series{Label: s.label}
		for _, x := range xs {
			pt, err := sw.point(s, x)
			if err != nil {
				return Figure{}, fmt.Errorf("%s: %w", name, err)
			}
			if r.pct {
				pt.X = 100 * x
			}
			out.Points = append(out.Points, pt)
		}
		fig.Series = append(fig.Series, out)
	}
	return fig, nil
}

// point projects one series at one x: the mean and standard deviation of
// the metric over the cell's runs, or for a derived series the ratio of
// that mean to the reference cell's.
func (sw *Sweep) point(s series, x float64) (Point, error) {
	vals, err := sw.values(s.cell(x), s.y)
	if err != nil {
		return Point{}, err
	}
	mean, std := stats.MeanStd(vals)
	pt := Point{X: x, Y: mean, Std: std, Runs: len(vals)}
	if s.over != nil {
		ref, err := sw.values(s.over(x), s.y)
		if err != nil {
			return Point{}, err
		}
		refMean, _ := stats.MeanStd(ref)
		pt.Y, pt.Std = s.ratio(mean, refMean), 0
	}
	return pt, nil
}

// values projects a cell's runs through a metric, dropping the runs that
// have no sample for it.
func (sw *Sweep) values(c cell, y metric) ([]float64, error) {
	outs, err := sw.runs(c)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(outs))
	for _, o := range outs {
		if v, ok := y(o); ok {
			vals = append(vals, v)
		}
	}
	return vals, nil
}

// runs returns the cell's outcomes in run order, executing it on first
// use: run r is seeded BaseSeed + r·7919, and under Audit every run is
// checked by its auditors as it goes, any violation failing the sweep.
func (sw *Sweep) runs(c cell) ([]*Result, error) {
	if outs, ok := sw.memo[c]; ok {
		return outs, nil
	}
	runs, baseSeed, audited := c.schedule()
	// Each run builds its own kernel, so runs are independent; the pool
	// returns them in run order, keeping every aggregate deterministic.
	outs, err := explore.RunBatch(runs, runtime.GOMAXPROCS(0), func(r int) (*Result, error) {
		seed := baseSeed + int64(r)*7919
		o, err := c.run(seed, audited)
		if err == nil && len(o.Violations) > 0 {
			err = fmt.Errorf("experiments: %+v seed=%d: %d invariant violations, first: %s",
				c, seed, len(o.Violations), o.Violations[0])
		}
		return o, err
	})
	if err != nil {
		return nil, err
	}
	sw.memo[c] = outs
	return outs, nil
}

// RunCustom executes one configuration for the CLI's -experiment custom
// mode; several runs total the counts and average everything else.
func RunCustom(p SingleSiteParams, proto Protocol, size int) (stats.Summary, error) {
	outs, err := NewSweep(Params{Single: p}).runs(p.cell(proto, size))
	if err != nil {
		return stats.Summary{}, err
	}
	var out stats.Summary
	for _, o := range outs {
		s := o.Summary
		out.Processed += s.Processed
		out.Committed += s.Committed
		out.Missed += s.Missed
		out.Restarts += s.Restarts
		out.MissedPct += s.MissedPct
		out.Throughput += s.Throughput
		out.AvgBlocked += s.AvgBlocked
		out.AvgResp += s.AvgResp
		out.RespP50 += s.RespP50
		out.RespP99 += s.RespP99
		out.CPUUtil += s.CPUUtil
		out.IOUtil += s.IOUtil
	}
	n := len(outs)
	out.MissedPct /= float64(n)
	out.Throughput /= float64(n)
	out.AvgBlocked /= sim.Duration(n)
	out.AvgResp /= sim.Duration(n)
	out.RespP50 /= sim.Duration(n)
	out.RespP99 /= sim.Duration(n)
	out.CPUUtil /= float64(n)
	out.IOUtil /= float64(n)
	return out, nil
}

// Names lists the table's figures in table order: the paper set with
// InPaper, what `all` reproduces with InAll, every name with ByName.
func Names(s Set) []string {
	var out []string
	for _, r := range table {
		if r.set >= s {
			out = append(out, r.Name)
		}
	}
	return out
}

// lookup resolves a figure name; the error lists the valid ones.
func lookup(name string) (*row, error) {
	for i := range table {
		if table[i].Name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (want one of %s)",
		name, strings.Join(Names(ByName), ", "))
}
