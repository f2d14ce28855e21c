package explore

import (
	"fmt"
	"slices"
)

// batchSize is the number of schedules handed to the worker pool at a
// time. It is a fixed constant, not derived from Options.Workers: the
// engine decides each batch's membership before any of it executes, so
// the explored schedule set is a pure function of (target, options) and
// workers only shorten the wall clock.
const batchSize = 8

// Run explores the target's schedule space under the given bounds and
// returns the verdict. It is deterministic: identical (target, options
// minus Workers) pairs produce identical reports. Each worker runs its
// schedules on a rig of its own, built on its first schedule and closed
// before Run returns.
func Run(t Target, o Options) (*Report, error) {
	o.fill()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if t.rig == nil {
		return nil, fmt.Errorf("explore: target %q has no rig", t.Name)
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
		workers:  make([]worker, o.Workers),
	}
	defer e.close()
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

	// workers are the per-worker rigs and choosers, indexed by the
	// batch runner's worker slot; the shrinker runs on the first.
	workers []worker
}

// worker is what one explorer worker reuses from schedule to schedule:
// the target's rig (nil until the worker's first schedule) and the
// chooser with its trace buffer.
type worker struct {
	rig rig
	ch  traceChooser
}

// close closes every rig the exploration built.
func (e *engine) close() {
	for i := range e.workers {
		if r := e.workers[i].rig; r != nil {
			r.close()
			e.workers[i].rig = nil
		}
	}
}

// runResult is one executed schedule. It keeps the decisions DFS can
// branch on, the first MaxDepth, and the trace length; the whole trace
// only when the schedule violated, for the counterexample.
type runResult struct {
	prefix []int
	head   []Decision
	depth  int
	trace  []Decision
	out    *Outcome
}

// execute runs one schedule on worker w under its chooser ch, which the
// caller has reset for the schedule.
func (e *engine) execute(w int, prefix []int, ch *traceChooser) (runResult, error) {
	out, err := e.runOn(w, ch)
	if err != nil {
		return runResult{}, err
	}
	if out == nil {
		return runResult{}, fmt.Errorf("explore: target %q returned no outcome", e.t.Name)
	}
	r := runResult{prefix: prefix, depth: len(ch.trace), out: out}
	r.head = slices.Clone(ch.trace[:min(len(ch.trace), e.o.MaxDepth)])
	if len(out.Violations) > 0 {
		r.trace = slices.Clone(ch.trace)
	}
	return r, nil
}

// runOn runs one schedule on worker w's rig, building the rig first if
// the worker has none.
func (e *engine) runOn(w int, ch *traceChooser) (*Outcome, error) {
	wk := &e.workers[w]
	if wk.rig == nil {
		r, err := e.t.rig()
		if err != nil {
			return nil, err
		}
		wk.rig = r
	}
	return wk.rig.run(ch, nil)
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
		results, err := runBatch(n, e.o.Workers, func(w, i int) (runResult, error) {
			return e.execute(w, batch[i], e.workers[w].ch.replay(batch[i]))
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
			for pos := len(r.prefix); pos < len(r.head); pos++ {
				fan := r.head[pos].N
				if fan > e.o.Branch {
					fan = e.o.Branch
				}
				for alt := 1; alt < fan; alt++ {
					child := make([]int, pos+1)
					for j := 0; j < pos; j++ {
						child[j] = r.head[j].Pick
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
		results, err := runBatch(n, e.o.Workers, func(w, i int) (runResult, error) {
			ch := &e.workers[w].ch
			if idx := base + i; idx > 0 {
				return e.execute(w, nil, ch.random(mix(e.o.Seed, int64(idx)), e.o.MaxDepth, e.o.Branch))
			}
			return e.execute(w, nil, ch.replay(nil))
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
	if r.depth > e.rep.Deepest {
		e.rep.Deepest = r.depth
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
			res, err := e.execute(0, cand, e.workers[0].ch.replay(cand))
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
