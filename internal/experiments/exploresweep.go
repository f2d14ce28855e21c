package experiments

import (
	"fmt"

	"rtlock/internal/core"
	"rtlock/internal/explore"
)

// ExploreParams configures the schedule-exploration sweep: every
// protocol is explored under a range of schedule budgets, and the sweep
// fails if any explored schedule violates the protocol's invariants.
// The figure reports how many distinct schedules each budget actually
// reaches per protocol — the coverage the budget buys.
type ExploreParams struct {
	// Protocols is the set swept (default: the full study).
	Protocols []Protocol
	// Budgets is the swept schedule budget (x axis).
	Budgets []int
	// MaxDepth and Branch bound each exploration (explore.Options
	// semantics, with that package's defaults when zero).
	MaxDepth int
	Branch   int
	// Workers parallelizes schedule execution within one exploration.
	Workers int
	// Seed drives the workload stream of every target.
	Seed int64
	// IncludeDistributed adds the two distributed architectures as
	// extra series (the only targets with message-order and 2PC vote
	// decision points).
	IncludeDistributed bool
}

// DefaultExplore returns the calibrated sweep configuration.
func DefaultExplore() ExploreParams {
	return ExploreParams{
		Protocols:          AllProtocols(),
		Budgets:            []int{8, 16, 32, 64},
		MaxDepth:           16,
		Branch:             2,
		Workers:            4,
		Seed:               1,
		IncludeDistributed: true,
	}
}

// AllProtocols returns every protocol of the study, in the order the
// figures list them: the protocol table's.
func AllProtocols() []Protocol { return core.Letters() }

// ExploreTarget builds the single-site exploration target of one row of
// the protocol table.
func ExploreTarget(p Protocol, seed int64) (explore.Target, error) {
	mk, disc, err := ManagerFor(p)
	if err != nil {
		return explore.Target{}, err
	}
	return explore.SingleSiteTarget(explore.SingleSiteOpts{Proto: string(p), NewManager: mk, Discipline: disc, Seed: seed})
}

// exploreTargets builds the sweep's target list from the configuration.
func exploreTargets(p ExploreParams) ([]explore.Target, error) {
	var targets []explore.Target
	for _, proto := range p.Protocols {
		tgt, err := ExploreTarget(proto, p.Seed)
		if err != nil {
			return nil, err
		}
		targets = append(targets, tgt)
	}
	if p.IncludeDistributed {
		for _, global := range []bool{false, true} {
			tgt, err := explore.DistributedTarget(explore.FaultOpts{Global: global, Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			targets = append(targets, tgt)
		}
	}
	return targets, nil
}

// ExploreSweep runs the schedule-space exploration sweep: each target is
// explored at every schedule budget, DFS strategy, and the distinct
// schedule count becomes the figure's y value. Any counterexample on an
// unmutated tree is a protocol bug and fails the sweep with the
// minimized schedule in the error.
func ExploreSweep(p ExploreParams) (Figure, error) {
	if len(p.Protocols) == 0 {
		p.Protocols = AllProtocols()
	}
	if len(p.Budgets) == 0 {
		p.Budgets = DefaultExplore().Budgets
	}
	targets, err := exploreTargets(p)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Name:   "explore",
		Title:  "Schedule-space coverage by budget (distinct schedules explored)",
		XLabel: "budget",
		YLabel: "distinct schedules",
	}
	for _, tgt := range targets {
		s := Series{Label: tgt.Name}
		for _, budget := range p.Budgets {
			rep, err := explore.Run(tgt, explore.Options{
				Strategy:  explore.DFS,
				Schedules: budget,
				MaxDepth:  p.MaxDepth,
				Branch:    p.Branch,
				Workers:   p.Workers,
				Minimize:  true,
			})
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: exploring %s at budget %d: %w", tgt.Name, budget, err)
			}
			if len(rep.Counterexamples) > 0 {
				ce := rep.Counterexamples[0]
				return Figure{}, fmt.Errorf(
					"experiments: %s violates %s on schedule %v (budget %d): %s",
					tgt.Name, ce.Rule, ce.Schedule, budget, ce.Violations[0])
			}
			s.Points = append(s.Points, Point{X: float64(budget), Y: float64(rep.Distinct), Runs: rep.Explored})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
