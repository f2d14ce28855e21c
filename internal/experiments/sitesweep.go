package experiments

import (
	"fmt"

	"rtlock/internal/audit"
	"rtlock/internal/dist"
	"rtlock/internal/journal"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

// SiteSweepParams configures the placement site-count sweep: every
// placement policy of internal/place is run at every site count with a
// locality-skewed workload, and each coordinated policy is compared
// against the uncoordinated primary-only baseline to price its
// consistency tax.
type SiteSweepParams struct {
	// Sites is the swept cluster-size axis (default {1, 2, 4, 8, 16}).
	Sites []int
	// Policies selects the placement policies (default all four).
	Policies []place.Policy
	DBSize   int
	// CPUPerObj is the per-object CPU demand; the database is
	// memory-resident as in the paper's distributed setting.
	CPUPerObj sim.Duration
	// CommDelay is the fixed one-way inter-site delay.
	CommDelay        sim.Duration
	MeanInterarrival sim.Duration
	MeanSize         int
	Count            int
	Runs             int
	// LocalityProb biases each access of the placement workloads toward
	// the transaction's home shard (full replication keeps the paper's
	// home-partition write sets instead; locality is meaningless when
	// every site holds every object).
	LocalityProb float64
	// ReadOnlyFrac is the transaction mix.
	ReadOnlyFrac float64
	SlackMin     float64
	SlackMax     float64
	// Replicas, ReadQuorum, WriteQuorum parameterize the quorum policy
	// (zero takes the cluster defaults: K=min(3,sites), majority R,
	// minimal intersecting W).
	Replicas, ReadQuorum, WriteQuorum int
	BaseSeed                          int64
	// Audit records a replay journal for every run and replays it
	// through the policy's invariant auditors (quorum runs include the
	// quorum-intersection invariant); any violation fails the sweep.
	Audit bool
}

// DefaultSiteSweep returns the calibrated site-sweep configuration.
func DefaultSiteSweep() SiteSweepParams {
	return SiteSweepParams{
		Sites:            []int{1, 2, 4, 8, 16},
		Policies:         place.Policies(),
		DBSize:           240,
		CPUPerObj:        10 * sim.Millisecond,
		CommDelay:        20 * sim.Millisecond,
		MeanInterarrival: 30 * sim.Millisecond,
		MeanSize:         6,
		Count:            300,
		Runs:             8,
		LocalityProb:     0.7,
		ReadOnlyFrac:     0.5,
		SlackMin:         4,
		SlackMax:         8,
		BaseSeed:         1,
	}
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p SiteSweepParams) Scale(countFrac float64, runs int) SiteSweepParams {
	p.Count = int(float64(p.Count) * countFrac)
	if p.Count < 20 {
		p.Count = 20
	}
	p.Runs = runs
	return p
}

// siteCell is the averaged result of one (policy, sites) grid cell.
type siteCell struct {
	thpt, thptStd   float64
	missed, missStd float64
	resp, respStd   float64 // mean response over committed, ms
}

// runSiteCell executes one run of a policy at a site count.
func runSiteCell(p SiteSweepParams, pol place.Policy, sites int, seed int64) (stats.Summary, error) {
	var jrn *journal.Journal
	if p.Audit {
		jrn = journal.New(seed, fmt.Sprintf("sitesweep/%s/sites=%d/loc=%g/mix=%g",
			pol, sites, p.LocalityProb, p.ReadOnlyFrac))
	}
	mode, err := dist.ModeFor(false, pol)
	if err != nil {
		return stats.Summary{}, err
	}
	c, err := dist.NewCluster(dist.Config{
		Mode:        mode,
		Replicas:    p.Replicas,
		ReadQuorum:  p.ReadQuorum,
		WriteQuorum: p.WriteQuorum,
		Sites:       sites,
		Objects:     p.DBSize,
		CommDelay:   p.CommDelay,
		CPUPerObj:   p.CPUPerObj,
		Journal:     jrn,
	})
	if err != nil {
		return stats.Summary{}, err
	}
	wp := workload.Params{
		Seed:             seed,
		Catalog:          c.Catalog,
		Count:            p.Count,
		MeanInterarrival: p.MeanInterarrival,
		MeanSize:         p.MeanSize,
		ReadOnlyFrac:     p.ReadOnlyFrac,
		PerObjCost:       p.CPUPerObj,
		SlackMin:         p.SlackMin,
		SlackMax:         p.SlackMax,
	}
	if mode.LocalWriteSets() {
		wp.LocalWriteSets = true
	} else {
		wp.LocalityProb = p.LocalityProb
	}
	load, err := workload.Generate(wp)
	if err != nil {
		return stats.Summary{}, err
	}
	c.Load(load)
	sum := c.Run()
	if jrn != nil {
		if vs := audit.Run(jrn, audit.ForPlacement(mode.String())...); len(vs) > 0 {
			return sum, fmt.Errorf("experiments: sitesweep %s sites=%d seed=%d: %d invariant violations, first: %s",
				pol, sites, seed, len(vs), vs[0])
		}
	}
	return sum, nil
}

// respOf projects the mean response times (in milliseconds) from
// summaries.
func respOf(sums []stats.Summary) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = float64(s.AvgResp) / float64(sim.Millisecond)
	}
	return out
}

// SiteSweep runs every placement policy across the site-count axis and
// derives three figures:
//
//   - "sites-throughput": committed throughput vs sites, one series per
//     policy.
//   - "sites-missed": % deadline-missing vs sites, one series per
//     policy.
//   - "consistency-tax": each coordinated policy's cost relative to the
//     uncoordinated primary-only baseline at the same site count —
//     latency tax = avgResp(policy)/avgResp(primary), throughput tax =
//     throughput(primary)/throughput(policy). A tax of 1 means
//     coordination was free; the gap above 1 is the price of the
//     consistency guarantee the policy actually delivers.
//
// The primary-only baseline is added to the policy set when absent,
// since the tax is measured against it.
func SiteSweep(p SiteSweepParams) (thpt, missed, tax Figure, err error) {
	policies := p.Policies
	hasPrimary := false
	for _, pol := range policies {
		if pol == place.PrimaryOnly {
			hasPrimary = true
		}
	}
	if !hasPrimary {
		policies = append(append([]place.Policy(nil), policies...), place.PrimaryOnly)
	}

	grid := make(map[place.Policy]map[int]siteCell)
	for _, pol := range policies {
		grid[pol] = make(map[int]siteCell)
		for _, sites := range p.Sites {
			pol, sites := pol, sites
			sums, err2 := collectRuns(p.Runs, func(r int) (stats.Summary, error) {
				return runSiteCell(p, pol, sites, p.BaseSeed+int64(r)*7919)
			})
			if err2 != nil {
				return thpt, missed, tax, err2
			}
			var c siteCell
			c.thpt, c.thptStd = stats.MeanStd(throughputOf(sums))
			c.missed, c.missStd = stats.MeanStd(missedOf(sums))
			c.resp, c.respStd = stats.MeanStd(respOf(sums))
			grid[pol][sites] = c
		}
	}

	thpt = Figure{
		Name:   "sites-throughput",
		Title:  "Committed throughput vs site count, by placement policy",
		XLabel: "sites",
		YLabel: "objects/sec",
	}
	missed = Figure{
		Name:   "sites-missed",
		Title:  "Deadline-missing percentage vs site count, by placement policy",
		XLabel: "sites",
		YLabel: "% missed",
	}
	for _, pol := range policies {
		st := Series{Label: pol.String()}
		sm := Series{Label: pol.String()}
		for _, sites := range p.Sites {
			c := grid[pol][sites]
			st.Points = append(st.Points, Point{X: float64(sites), Y: c.thpt, Std: c.thptStd, Runs: p.Runs})
			sm.Points = append(sm.Points, Point{X: float64(sites), Y: c.missed, Std: c.missStd, Runs: p.Runs})
		}
		thpt.Series = append(thpt.Series, st)
		missed.Series = append(missed.Series, sm)
	}

	tax = Figure{
		Name:   "consistency-tax",
		Title:  "Consistency tax vs the primary-only baseline",
		XLabel: "sites",
		YLabel: "coordinated/baseline ratio (1 = free)",
	}
	for _, pol := range policies {
		if pol == place.PrimaryOnly {
			continue
		}
		lat := Series{Label: pol.String() + "/latency"}
		thr := Series{Label: pol.String() + "/throughput"}
		for _, sites := range p.Sites {
			c, base := grid[pol][sites], grid[place.PrimaryOnly][sites]
			lat.Points = append(lat.Points, Point{X: float64(sites), Y: ratio(c.resp, base.resp), Runs: p.Runs})
			thr.Points = append(thr.Points, Point{X: float64(sites), Y: ratio(base.thpt, c.thpt), Runs: p.Runs})
		}
		tax.Series = append(tax.Series, lat, thr)
	}
	return thpt, missed, tax, nil
}
