package experiments

import (
	"fmt"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

// Protocol names a concurrency-control protocol under test by the
// paper's letter; the protocols are the rows of core.Protocols.
type Protocol = core.Protocol

// ProtoCeiling is the paper's protocol C, the default of every harness
// entry point.
const ProtoCeiling = core.ProtoCeiling

// ManagerFor looks the protocol up in the table and returns its lock
// manager constructor and the CPU discipline it runs under.
func ManagerFor(p Protocol) (func(*sim.Kernel) core.Manager, sim.Discipline, error) {
	row, err := core.Lookup(p)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: %w", err)
	}
	return row.New, row.Discipline, nil
}

// Schedule is how every cell of a family is run: Runs independent runs
// of Count transactions, run r seeded BaseSeed + r·7919. The system, the
// database and the rest of the load are the base's (Params.Base, else the
// family's built-in setting); a family adds only what its figures vary.
type Schedule struct {
	Count    int // transactions per run
	Runs     int // independent runs averaged per point
	BaseSeed int64
	// Audit checks every run with its invariant auditors as its journal
	// is written (no records are kept); any violation fails the sweep. It
	// turns every experiment cell into a correctness test.
	Audit bool
}

// Scale shrinks the run length for quick tests and benchmarks: countFrac
// of the transactions, at least 20, over the given number of runs.
func (s *Schedule) Scale(countFrac float64, runs int) {
	s.Count, s.Runs = max(int(float64(s.Count)*countFrac), 20), runs
}

// SingleSiteParams configures the single-site experiments (Figures 2–3):
// a database of 200 objects under an arrival rate that saturates both
// CPU and I/O when the mean size reaches 20, with the transaction size
// swept up to 10% of the database so conflicts are frequent. The base is
// SingleSiteConfig's defaults.
type SingleSiteParams struct {
	Schedule
	Sizes []int
}

// DefaultSingleSite returns the calibrated configuration.
func DefaultSingleSite() SingleSiteParams {
	return SingleSiteParams{
		Schedule: Schedule{Count: 400, Runs: 10, BaseSeed: 1},
		Sizes:    []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
	}
}

// DistParams configures the distributed experiments (Figures 4–6):
// three fully interconnected sites over a memory-resident database, with
// the transaction mix and the communication delay swept. Delays are in
// "time units" of the per-object CPU cost. The base is
// DistributedConfig's defaults.
type DistParams struct {
	Schedule
	// Mixes is the swept fraction of read-only transactions.
	Mixes []float64
	// DelayUnits is the swept communication delay.
	DelayUnits []float64
	// Fig6Delays picks the two delays whose curves Figure 6 shows.
	Fig6Delays []float64
}

// DefaultDistributed returns the calibrated configuration.
func DefaultDistributed() DistParams {
	return DistParams{
		Schedule:   Schedule{Count: 300, Runs: 8, BaseSeed: 1},
		Mixes:      []float64{0, 0.25, 0.5, 0.75, 1},
		DelayUnits: []float64{0, 0.5, 1, 2, 4, 6, 8, 10},
		Fig6Delays: []float64{2, 8},
	}
}

// SiteSweepParams configures the placement site-count sweep: every
// placement policy of internal/place is run at every site count, and each
// coordinated policy is compared against the uncoordinated primary-only
// baseline to price its consistency tax. The built-in base is a
// locality-skewed 50/50 mix over 240 objects (siteBase in cells.go);
// the locality, the mix and the quorum sizes are the base's keys.
type SiteSweepParams struct {
	Schedule
	// Sites is the swept cluster-size axis (default {1, 2, 4, 8, 16}).
	Sites []int
}

// DefaultSiteSweep returns the calibrated site-sweep configuration.
func DefaultSiteSweep() SiteSweepParams {
	return SiteSweepParams{
		Schedule: Schedule{Count: 300, Runs: 8, BaseSeed: 1},
		Sites:    []int{1, 2, 4, 8, 16},
	}
}

// FaultParams configures the graceful-degradation sweep: the Figures 4–6
// setting (a 50/50 mix at delay 2 over 3 sites, faultBase in cells.go)
// rerun under generated fault plans of increasing severity. Severity 0 is
// the fault-free baseline; each higher point crashes more sites for
// longer and loses, duplicates, and delays more messages.
type FaultParams struct {
	Schedule
	// Severities is the swept fault severity in [0, 1].
	Severities []float64
}

// DefaultFaults returns the calibrated configuration.
func DefaultFaults() FaultParams {
	return FaultParams{
		Schedule:   Schedule{Count: 300, Runs: 8, BaseSeed: 1},
		Severities: []float64{0, 0.25, 0.5, 0.75, 1},
	}
}

// Params is the configuration handed to a Sweep: one parameter set per
// experiment family, and the base every cell starts from. A figure reads
// only its own family's set, so a caller after one figure fills one
// field.
type Params struct {
	Single    SingleSiteParams
	Dist      DistParams
	SiteSweep SiteSweepParams
	Faults    FaultParams
	// Base, when it sets a config, is the run every cell of a figure of
	// its mode starts from, in place of the family's built-in setting: a
	// cell sets only what its row varies. Neither config set keeps each
	// family's own. Cells share the config by pointer, so it must not
	// change while a sweep runs; Check names the keys it may not set.
	Base Spec
}

// DefaultParams returns the calibrated configuration of every family.
func DefaultParams() Params {
	return Params{Single: DefaultSingleSite(), Dist: DefaultDistributed(), SiteSweep: DefaultSiteSweep(), Faults: DefaultFaults()}
}
