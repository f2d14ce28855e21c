package experiments

import (
	"fmt"

	"rtlock/internal/core"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
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

// SingleSiteParams configures the single-site experiments (Figures 2–3).
// The defaults reproduce the paper's setting: a database of 200 objects;
// transaction size swept up to 10% of the database so conflicts are
// frequent; an arrival rate that keeps the system heavily loaded (both
// CPU and I/O are saturated when the mean size reaches 20); deadlines
// proportional to size; hard transactions aborted at their deadlines.
type SingleSiteParams struct {
	DBSize           int
	CPUPerObj        sim.Duration
	IOPerObj         sim.Duration
	MeanInterarrival sim.Duration
	SlackMin         float64
	SlackMax         float64
	ReadOnlyFrac     float64
	Count            int // transactions per run
	Runs             int // independent runs averaged per point
	Sizes            []int
	Protocols        []Protocol
	BaseSeed         int64
	// Policy assigns transaction priorities (zero value = earliest
	// deadline first, the paper's choice).
	Policy workload.PriorityPolicy
	// Audit checks every run with the protocol's invariant auditors as
	// its journal is written (no records are kept); any violation fails
	// the run. It turns every experiment cell into a correctness test.
	Audit bool
}

// DefaultSingleSite returns the calibrated configuration.
func DefaultSingleSite() SingleSiteParams {
	return SingleSiteParams{
		DBSize:           200,
		CPUPerObj:        10 * sim.Millisecond,
		IOPerObj:         20 * sim.Millisecond,
		MeanInterarrival: 450 * sim.Millisecond,
		SlackMin:         4,
		SlackMax:         8,
		Count:            400,
		Runs:             10,
		Sizes:            []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		Protocols:        []Protocol{core.ProtoCeiling, core.ProtoTwoPLPrio, core.ProtoTwoPL},
		BaseSeed:         1,
	}
}

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
	// Audit checks every run with the approach's invariant auditors as
	// its journal is written; any violation fails the run.
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
	// Audit checks every run with the policy's invariant auditors as its
	// journal is written (quorum runs include the quorum-intersection
	// invariant); any violation fails the sweep.
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
	// Audit checks every run with the fault-aware invariant auditors as
	// its journal is written; any violation fails the sweep.
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

// scaled shrinks a run length for quick tests and benchmarks, keeping at
// least 20 transactions.
func scaled(count int, frac float64) int {
	return max(int(float64(count)*frac), 20)
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p SingleSiteParams) Scale(countFrac float64, runs int) SingleSiteParams {
	p.Count, p.Runs = scaled(p.Count, countFrac), runs
	return p
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p DistParams) Scale(countFrac float64, runs int) DistParams {
	p.Count, p.Runs = scaled(p.Count, countFrac), runs
	return p
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p SiteSweepParams) Scale(countFrac float64, runs int) SiteSweepParams {
	p.Count, p.Runs = scaled(p.Count, countFrac), runs
	return p
}

// Scale shrinks the run length for quick tests and benchmarks.
func (p FaultParams) Scale(countFrac float64, runs int) FaultParams {
	p.Count, p.Runs = scaled(p.Count, countFrac), runs
	return p
}

// Params is the configuration handed to a Sweep: one parameter set per
// experiment family. A figure reads only its own family's set, so a
// caller after one figure fills one field.
type Params struct {
	Single    SingleSiteParams
	Dist      DistParams
	SiteSweep SiteSweepParams
	Faults    FaultParams
}

// DefaultParams returns the calibrated configuration of every family.
func DefaultParams() Params {
	return Params{DefaultSingleSite(), DefaultDistributed(), DefaultSiteSweep(), DefaultFaults()}
}
