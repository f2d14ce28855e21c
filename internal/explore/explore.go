// Package explore is a schedule-space exploration engine — systematic
// concurrency testing over the deterministic simulation kernel.
//
// The kernel executes exactly one canonical interleaving per
// (seed, config) pair; bugs that only surface under a rare dispatch
// order are invisible to it. This package drives the kernel through its
// scheduling decision points (sim.ChoicePoint: simultaneous-event
// ordering, CPU ready-queue ties, message delivery order, 2PC prepare
// fan-out rotation) with a chooser that substitutes alternative picks,
// turning the single canonical run into a bounded tree of schedules.
// Every explored schedule runs under the internal/audit invariant
// auditors; a violation yields the decision trace that produced it plus
// a delta-debugging shrinker that reduces the trace to a locally
// minimal failing schedule, replayable through the journal machinery.
//
// Exploration is itself deterministic: a fixed (target, options) pair
// explores the same schedule set, in the same order, producing
// byte-identical verdict output — regardless of worker count or
// GOMAXPROCS. Workers parallelize the execution of an already-decided
// batch of schedules; they never influence which schedules are chosen.
package explore

import (
	"fmt"

	"rtlock/internal/audit"
	"rtlock/internal/faults"
	"rtlock/internal/sim"
)

// Strategy selects how the schedule tree is walked.
type Strategy string

const (
	// DFS walks the decision tree depth-first: each explored schedule's
	// trace is branched at every canonical-suffix position (bounded by
	// MaxDepth and Branch), newest branches first. Complete up to the
	// bounds: with generous budgets it enumerates every schedule in the
	// bounded tree exactly once.
	DFS Strategy = "dfs"
	// Random runs independent seeded random walks: schedule i draws its
	// picks from an RNG derived from (Seed, i). Sparse but unbiased
	// coverage of deep schedules DFS would not reach within budget.
	Random Strategy = "random"
)

// Options bounds and parameterizes an exploration.
type Options struct {
	// Strategy is DFS (default) or Random.
	Strategy Strategy
	// Schedules is the budget: the maximum number of schedules executed
	// (default 64). The canonical schedule is always the first.
	Schedules int
	// MaxDepth bounds how many decision positions may deviate from
	// canonical (default 24). Decisions beyond the bound are canonical.
	MaxDepth int
	// Branch caps the alternatives considered per decision position,
	// canonical included (default 3): a decision with n alternatives
	// fans out min(n, Branch) ways.
	Branch int
	// Workers sizes the parallel runner pool (default 1). Worker count
	// affects wall-clock time only, never the explored schedule set,
	// its order, or the verdict output.
	Workers int
	// Seed drives the Random strategy's walks (default 1). DFS ignores
	// it.
	Seed int64
	// Minimize shrinks each counterexample to a locally minimal failing
	// schedule before reporting it.
	Minimize bool
	// ShrinkBudget caps the schedules the shrinker may execute per
	// counterexample (default 200).
	ShrinkBudget int
	// MaxCounterexamples stops the exploration after this many distinct
	// violating schedules (default 3; distinct = first violation's rule
	// not seen before, or any violation when that cap is not yet hit).
	MaxCounterexamples int
}

func (o *Options) fill() {
	if o.Strategy == "" {
		o.Strategy = DFS
	}
	if o.Schedules <= 0 {
		o.Schedules = 64
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 24
	}
	if o.Branch <= 1 {
		o.Branch = 3
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 200
	}
	if o.MaxCounterexamples <= 0 {
		o.MaxCounterexamples = 3
	}
}

func (o Options) validate() error {
	if o.Strategy != DFS && o.Strategy != Random {
		return fmt.Errorf("explore: unknown strategy %q (want %q or %q)", o.Strategy, DFS, Random)
	}
	return nil
}

// Target is one system under exploration. It runs its schedules on
// rigs: a rig is one complete simulation (kernel, processors, lock
// managers, transaction engine or cluster, auditors and journal) that
// is reset in place between schedules rather than rebuilt. The package
// function Run gives each of its workers a rig of its own and closes
// them before it returns; a reset rig runs a schedule exactly as a new one would, so
// outcomes never depend on which worker ran a schedule or what ran on
// its rig before.
type Target struct {
	// Name labels the target in reports ("single/C", "dist/global", …).
	Name string
	// rig builds one worker's rig, and plans says it takes fault plans.
	rig   func() (rig, error)
	plans bool
}

// rig is one worker's simulation of a target, reset in place by every
// run: under the chooser (plan nil), which on a fault-space target also
// drives the fault space, or under a fixed fault plan (ch nil). close
// ends the goroutines it keeps between runs.
type rig interface {
	run(ch sim.Chooser, plan *faults.Plan) (*Outcome, error)
	close()
}

// Run executes one schedule under the chooser's decisions, on a rig of
// its own that it closes before returning.
func (t Target) Run(ch sim.Chooser) (*Outcome, error) { return t.once(ch, nil) }

// RunPlan executes the canonical schedule under a fixed fault plan
// instead of a chooser — how an exported counterexample's FaultPlan is
// replayed — on a rig of its own, like Run. Only fault-space targets
// take a plan.
func (t Target) RunPlan(plan *faults.Plan) (*Outcome, error) {
	if !t.plans {
		return nil, fmt.Errorf("explore: target %q takes no fault plan", t.Name)
	}
	return t.once(nil, plan)
}

func (t Target) once(ch sim.Chooser, plan *faults.Plan) (*Outcome, error) {
	if t.rig == nil {
		return nil, fmt.Errorf("explore: target %q has no rig", t.Name)
	}
	r, err := t.rig()
	if err != nil {
		return nil, err
	}
	defer r.close()
	return r.run(ch, plan)
}

// Outcome is one executed schedule's result.
type Outcome struct {
	// JournalHash is the canonical hash of the run's journal — the
	// state hash behind visited-set pruning and the distinct-behavior
	// count. Runs reaching the same hash executed identically.
	JournalHash string
	// Violations are the auditor findings for this schedule.
	Violations []audit.Violation
	// FaultPlan is the failure schedule this run committed to (nil for
	// fault-free targets or when every fault decision was canonical).
	FaultPlan *faults.Plan
}

// Decision is one consulted decision point in a schedule's trace.
type Decision struct {
	// Point is the decision kind (sim.ChoicePoint).
	Point sim.ChoicePoint `json:"point"`
	// N is the number of alternatives that were available.
	N int `json:"n"`
	// Pick is the chosen alternative (0 = canonical).
	Pick int `json:"pick"`
}

// Counterexample is one violating schedule.
type Counterexample struct {
	// Schedule is the decision pick sequence reproducing the failure
	// (trailing canonical picks trimmed): replay it with a prefix
	// chooser to regenerate the violating journal.
	Schedule []int `json:"schedule"`
	// Rule is the first firing auditor's name.
	Rule string `json:"rule"`
	// Violations are the auditor findings of the (possibly minimized)
	// failing schedule.
	Violations []string `json:"violations"`
	// JournalHash identifies the failing run for journal-level replay.
	JournalHash string `json:"journal_hash"`
	// Minimized reports whether the shrinker ran to local minimality.
	Minimized bool `json:"minimized"`
	// FoundLen is the pre-shrink schedule length (trimmed), for
	// measuring how much the shrinker removed.
	FoundLen int `json:"found_len"`
	// ShrinkRuns is the number of schedules the shrinker executed.
	ShrinkRuns int `json:"shrink_runs"`
	// FaultPlan is the chosen failure schedule of the final failing run
	// (nil when it injected no faults) — exportable as a runnable
	// faults spec and replayable through Target.RunPlan.
	FaultPlan *faults.Plan `json:"fault_plan,omitempty"`
	// FaultDecisions counts the non-canonical fault picks (crash,
	// message fate, partition cut) in the final failing schedule.
	FaultDecisions int `json:"fault_decisions,omitempty"`
	// FaultOnly reports that every non-canonical pick in the final
	// failing schedule is a fault decision: FaultPlan alone reproduces
	// the failure byte-identically, no scheduling trace needed.
	FaultOnly bool `json:"fault_only,omitempty"`
}

// Report is one exploration's result.
type Report struct {
	// Target names the explored system.
	Target string `json:"target"`
	// Strategy, Seed, Schedules, MaxDepth, and Branch echo the bounds
	// the numbers below were obtained under.
	Strategy  Strategy `json:"strategy"`
	Seed      int64    `json:"seed"`
	Schedules int      `json:"schedules"`
	MaxDepth  int      `json:"max_depth"`
	Branch    int      `json:"branch"`
	// Explored counts schedules actually executed.
	Explored int `json:"explored"`
	// Distinct counts distinct journal hashes — schedules whose
	// executions genuinely differed.
	Distinct int `json:"distinct"`
	// Pruned counts explored schedules whose journal hash had already
	// been reached (their subtrees were not expanded).
	Pruned int `json:"pruned"`
	// Frontier counts schedules generated but not executed when the
	// budget ran out (0 = the bounded tree was exhausted).
	Frontier int `json:"frontier"`
	// Deepest is the longest decision trace observed.
	Deepest int `json:"deepest"`
	// Counterexamples lists the violating schedules found, in
	// discovery order.
	Counterexamples []Counterexample `json:"counterexamples"`
}

// isFaultPoint reports whether a decision point injects a fault rather
// than reordering the schedule.
func isFaultPoint(p sim.ChoicePoint) bool {
	switch p {
	case sim.ChooseCrash, sim.ChooseFate, sim.ChooseCut:
		return true
	}
	return false
}

// trimPicks drops trailing canonical picks: a schedule and its
// zero-extended forms execute identically, so the trimmed form is the
// canonical identity of a schedule.
func trimPicks(p []int) []int {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}
