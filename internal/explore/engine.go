package explore

import (
	"fmt"
)

// batchSize is the number of schedules handed to the worker pool at a
// time. It is a fixed constant, not derived from Options.Workers: the
// engine decides each batch's membership before any of it executes, so
// the explored schedule set is a pure function of (target, options) and
// workers only shorten the wall clock.
const batchSize = 8

// Run explores the target's schedule space under the given bounds and
// returns the verdict. It is deterministic: identical (target, options
// minus Workers) pairs produce identical reports.
func Run(t Target, o Options) (*Report, error) {
	o.fill()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if t.Run == nil {
		return nil, fmt.Errorf("explore: target %q has no Run", t.Name)
	}
	e := &engine{
		t: t,
		o: o,
		rep: &Report{
			Target:          t.Name,
			Strategy:        o.Strategy,
			Seed:            o.Seed,
			Schedules:       o.Schedules,
			MaxDepth:        o.MaxDepth,
			Branch:          o.Branch,
			Counterexamples: []Counterexample{},
		},
		seenHash: make(map[string]bool),
		seenRule: make(map[string]bool),
	}
	var err error
	switch o.Strategy {
	case Random:
		err = e.runRandom()
	default:
		err = e.runDFS()
	}
	if err != nil {
		return nil, err
	}
	return e.rep, nil
}

type engine struct {
	t   Target
	o   Options
	rep *Report

	seenHash map[string]bool
	seenRule map[string]bool
	stop     bool // MaxCounterexamples reached
}

// runResult is one executed schedule.
type runResult struct {
	prefix []int
	trace  []Decision
	out    *Outcome
}

// execute runs one schedule under ch and collects its trace.
func (e *engine) execute(prefix []int, ch *traceChooser) (runResult, error) {
	out, err := e.t.Run(ch)
	if err != nil {
		return runResult{}, err
	}
	if out == nil {
		return runResult{}, fmt.Errorf("explore: target %q returned no outcome", e.t.Name)
	}
	return runResult{prefix: prefix, trace: ch.trace, out: out}, nil
}

// runDFS walks the decision tree depth-first. The frontier is a stack
// of pick prefixes; each executed schedule replays its prefix and
// extends canonically, then branches at every canonical-suffix decision
// position within the depth/branch bounds. Children are unique by
// construction (each deviates at a position its parent kept canonical),
// so no schedule is ever executed twice; the journal-hash visited set
// additionally prunes subtrees of executions that were reached twice
// via pick clamping or don't-care decisions.
func (e *engine) runDFS() error {
	stack := [][]int{nil} // canonical schedule first
	for len(stack) > 0 && e.rep.Explored < e.o.Schedules && !e.stop {
		n := batchSize
		if rem := e.o.Schedules - e.rep.Explored; n > rem {
			n = rem
		}
		if n > len(stack) {
			n = len(stack)
		}
		batch := make([][]int, n)
		for i := 0; i < n; i++ {
			batch[i] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		results, err := RunBatch(n, e.o.Workers, func(i int) (runResult, error) {
			return e.execute(batch[i], replayChooser(batch[i]))
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			fresh := e.observe(r)
			if !fresh || e.stop {
				continue
			}
			// Branch the canonical suffix, deepest position pushed
			// last so it pops first (true backtracking order).
			limit := len(r.trace)
			if limit > e.o.MaxDepth {
				limit = e.o.MaxDepth
			}
			for pos := len(r.prefix); pos < limit; pos++ {
				fan := r.trace[pos].N
				if fan > e.o.Branch {
					fan = e.o.Branch
				}
				for alt := 1; alt < fan; alt++ {
					child := make([]int, pos+1)
					for j := 0; j < pos; j++ {
						child[j] = r.trace[j].Pick
					}
					child[pos] = alt
					stack = append(stack, child)
				}
			}
		}
	}
	e.rep.Frontier = len(stack)
	return nil
}

// runRandom executes independent seeded walks: schedule 0 is canonical,
// schedule i > 0 draws its picks from an RNG derived from (Seed, i).
// Walks are independent, so batching is mere parallelism here too.
func (e *engine) runRandom() error {
	next := 0
	for next < e.o.Schedules && !e.stop {
		n := batchSize
		if rem := e.o.Schedules - next; n > rem {
			n = rem
		}
		base := next
		results, err := RunBatch(n, e.o.Workers, func(i int) (runResult, error) {
			idx := base + i
			if idx == 0 {
				return e.execute(nil, replayChooser(nil))
			}
			ch := randomChooser(mix(e.o.Seed, int64(idx)), e.o.MaxDepth, e.o.Branch)
			return e.execute(nil, ch)
		})
		if err != nil {
			return err
		}
		next += n
		for _, r := range results {
			e.observe(r)
		}
	}
	e.rep.Frontier = e.o.Schedules - next
	return nil
}

// observe folds one executed schedule into the report and reports
// whether its execution was fresh (journal hash not seen before).
func (e *engine) observe(r runResult) bool {
	e.rep.Explored++
	if len(r.trace) > e.rep.Deepest {
		e.rep.Deepest = len(r.trace)
	}
	if e.seenHash[r.out.JournalHash] {
		e.rep.Pruned++
		return false
	}
	e.seenHash[r.out.JournalHash] = true
	e.rep.Distinct++
	if len(r.out.Violations) > 0 {
		e.addCounterexample(r)
	}
	return true
}

// addCounterexample records (and optionally minimizes) one violating
// schedule. Only the first schedule per auditor rule is kept — repeats
// of a known failure mode add noise, not signal — and the exploration
// stops once MaxCounterexamples rules have fired.
func (e *engine) addCounterexample(r runResult) {
	rule := r.out.Violations[0].Rule
	if e.seenRule[rule] {
		return
	}
	e.seenRule[rule] = true

	picks := make([]int, len(r.trace))
	for i, d := range r.trace {
		picks[i] = d.Pick
	}
	picks = trimPicks(picks)
	ce := Counterexample{
		Schedule:    append([]int(nil), picks...),
		Rule:        rule,
		JournalHash: r.out.JournalHash,
		FoundLen:    len(picks),
	}
	final := r.out
	finalTrace := r.trace
	if e.o.Minimize && len(picks) > 0 {
		var lastFail *Outcome
		var lastTrace []Decision
		min, runs, complete := Shrink(picks, e.o.ShrinkBudget, func(cand []int) bool {
			res, err := e.execute(cand, replayChooser(cand))
			if err != nil || len(res.out.Violations) == 0 {
				return false
			}
			lastFail, lastTrace = res.out, res.trace
			return true
		})
		ce.Schedule = min
		ce.ShrinkRuns = runs
		ce.Minimized = complete
		if lastFail != nil {
			// Shrink adopts every candidate that still fails, so the last
			// failing run IS the minimal schedule: its trace and outcome
			// describe exactly what ce.Schedule reproduces.
			final, finalTrace = lastFail, lastTrace
		}
	}
	ce.JournalHash = final.JournalHash
	ce.Violations = make([]string, 0, len(final.Violations))
	for _, v := range final.Violations {
		ce.Violations = append(ce.Violations, v.String())
	}
	ce.FaultPlan = final.FaultPlan
	faultPicks, schedPicks := 0, 0
	for _, d := range finalTrace {
		if d.Pick == 0 {
			continue
		}
		if isFaultPoint(d.Point) {
			faultPicks++
		} else {
			schedPicks++
		}
	}
	ce.FaultDecisions = faultPicks
	ce.FaultOnly = faultPicks > 0 && schedPicks == 0
	e.rep.Counterexamples = append(e.rep.Counterexamples, ce)
	if len(e.rep.Counterexamples) >= e.o.MaxCounterexamples {
		e.stop = true
	}
}

// mix derives schedule i's RNG seed from the explore seed with a
// splitmix64 round, so consecutive schedules draw decorrelated streams.
func mix(seed, i int64) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
