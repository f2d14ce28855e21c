package explore

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/faults"
	"rtlock/internal/sim"
)

// syntheticTarget simulates a system with `points` decision positions of
// `fan` alternatives each. Its "journal hash" is the pick sequence, so
// every distinct schedule is a distinct behavior, and `fail` marks pick
// sequences that violate. It records every executed schedule.
type syntheticTarget struct {
	points, fan int
	fail        func(picks []int) bool

	mu   sync.Mutex
	runs [][]int
}

// replayChooser returns a new chooser for the schedule identified by
// picks.
func replayChooser(picks []int) *traceChooser { return new(traceChooser).replay(picks) }

// funcRig is the rig of a hand-built test target, which builds a fresh
// simulation on every call.
type funcRig func(ch sim.Chooser) (*Outcome, error)

func (f funcRig) run(ch sim.Chooser, _ *faults.Plan) (*Outcome, error) { return f(ch) }
func (funcRig) close()                                                 {}

// funcTarget is a hand-built target whose every schedule calls run.
func funcTarget(name string, run func(ch sim.Chooser) (*Outcome, error)) Target {
	return Target{Name: name, rig: func() (rig, error) { return funcRig(run), nil }}
}

func (s *syntheticTarget) target() Target {
	return funcTarget("synthetic", func(ch sim.Chooser) (*Outcome, error) {
		picks := make([]int, s.points)
		for i := range picks {
			picks[i] = ch.Choose(sim.ChooseEvent, s.fan)
		}
		key := trimPicks(picks)
		s.mu.Lock()
		s.runs = append(s.runs, append([]int(nil), key...))
		s.mu.Unlock()
		out := &Outcome{JournalHash: fmt.Sprint(key)}
		if s.fail != nil && s.fail(picks) {
			out.Violations = []audit.Violation{{Rule: "synthetic", Detail: fmt.Sprint(key)}}
		}
		return out, nil
	})
}

// sortedRuns returns the executed schedules in a canonical order.
func (s *syntheticTarget) sortedRuns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.runs))
	for i, r := range s.runs {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestDFSNoScheduleExploredTwice pins the visited-set/pruning guarantee:
// with a budget covering the whole bounded tree, DFS executes every
// schedule exactly once and exhausts the frontier.
func TestDFSNoScheduleExploredTwice(t *testing.T) {
	syn := &syntheticTarget{points: 5, fan: 3}
	rep, err := Run(syn.target(), Options{Schedules: 1000, MaxDepth: 5, Branch: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * 3 * 3 * 3 * 3 // {0,1,2}^5
	if rep.Explored != want {
		t.Fatalf("explored %d schedules, want the full tree %d", rep.Explored, want)
	}
	if rep.Frontier != 0 {
		t.Fatalf("frontier %d after exhausting the tree, want 0", rep.Frontier)
	}
	if rep.Distinct != want {
		t.Fatalf("distinct %d, want %d", rep.Distinct, want)
	}
	runs := syn.sortedRuns()
	for i := 1; i < len(runs); i++ {
		if runs[i] == runs[i-1] {
			t.Fatalf("schedule %s executed more than once", runs[i])
		}
	}
}

// TestDFSBranchAndDepthBounds pins the fan-out caps: Branch alternatives
// per position, MaxDepth deviating positions.
func TestDFSBranchAndDepthBounds(t *testing.T) {
	syn := &syntheticTarget{points: 6, fan: 4}
	rep, err := Run(syn.target(), Options{Schedules: 1000, MaxDepth: 3, Branch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; rep.Explored != want { // {0,1}^3, positions 3..5 canonical
		t.Fatalf("explored %d, want %d", rep.Explored, want)
	}
	for _, r := range syn.runs {
		if len(r) > 3 {
			t.Fatalf("schedule %v deviates beyond MaxDepth 3", r)
		}
		for _, p := range r {
			if p > 1 {
				t.Fatalf("schedule %v exceeds Branch 2", r)
			}
		}
	}
}

// TestDFSPrunesDuplicateHashes: schedules mapping to an already-seen
// state hash are counted as pruned and not expanded.
func TestDFSPrunesDuplicateHashes(t *testing.T) {
	// Collapse every schedule to one of two behaviors: "first pick
	// canonical" vs not. After the first two distinct behaviors, every
	// further schedule is a duplicate and its subtree is pruned.
	syn := &syntheticTarget{points: 4, fan: 2}
	inner := syn.target()
	tgt := funcTarget("synthetic", func(ch sim.Chooser) (*Outcome, error) {
		out, err := inner.Run(ch)
		if err != nil {
			return nil, err
		}
		h := "canonical"
		if len(out.JournalHash) > 2 { // non-empty pick list
			h = "deviant"
		}
		out.JournalHash = h
		return out, nil
	})
	rep, err := Run(tgt, Options{Schedules: 100, MaxDepth: 4, Branch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Distinct != 2 {
		t.Fatalf("distinct %d, want 2", rep.Distinct)
	}
	if rep.Pruned != rep.Explored-2 {
		t.Fatalf("pruned %d of %d explored, want all but 2", rep.Pruned, rep.Explored)
	}
}

// TestWorkersDoNotChangeExploredSet pins the acceptance criterion:
// -workers=4 explores exactly the same schedule set as -workers=1, and
// the reports match field for field.
func TestWorkersDoNotChangeExploredSet(t *testing.T) {
	for _, strat := range []Strategy{DFS, Random} {
		syn1 := &syntheticTarget{points: 6, fan: 3, fail: func(p []int) bool { return p[2] == 2 && p[4] == 1 }}
		syn4 := &syntheticTarget{points: 6, fan: 3, fail: func(p []int) bool { return p[2] == 2 && p[4] == 1 }}
		opts := Options{Strategy: strat, Schedules: 120, MaxDepth: 6, Branch: 3, Seed: 7, Minimize: true}
		opts1, opts4 := opts, opts
		opts1.Workers = 1
		opts4.Workers = 4
		rep1, err := Run(syn1.target(), opts1)
		if err != nil {
			t.Fatal(err)
		}
		rep4, err := Run(syn4.target(), opts4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep1, rep4) {
			t.Fatalf("%s: workers=1 and workers=4 reports differ:\n%+v\nvs\n%+v", strat, rep1, rep4)
		}
		r1, r4 := syn1.sortedRuns(), syn4.sortedRuns()
		if !reflect.DeepEqual(r1, r4) {
			t.Fatalf("%s: workers=1 and workers=4 explored different schedule sets", strat)
		}
	}
}

// TestVerdictByteIdenticalAcrossRunsAndGOMAXPROCS holds the explorer's
// verdict output to the journal's determinism bar.
func TestVerdictByteIdenticalAcrossRunsAndGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func() []byte {
		syn := &syntheticTarget{points: 5, fan: 3, fail: func(p []int) bool { return p[1] == 1 && p[3] == 2 }}
		rep, err := Run(syn.target(), Options{Strategy: Random, Schedules: 80, MaxDepth: 5, Branch: 3, Seed: 11, Workers: 4, Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteVerdict(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runtime.GOMAXPROCS(1)
	a := render()
	runtime.GOMAXPROCS(8)
	b := render()
	c := render()
	if !bytes.Equal(a, b) || !bytes.Equal(b, c) {
		t.Fatalf("verdict output differs across runs/GOMAXPROCS:\n%s\nvs\n%s\nvs\n%s", a, b, c)
	}
	if !bytes.Contains(a, []byte(`"kind":"counterexample"`)) {
		t.Fatalf("expected a counterexample in the verdict:\n%s", a)
	}
}

// TestEngineFindsAndMinimizesSyntheticViolation: end-to-end on the
// synthetic target, the engine finds the violating schedule and the
// shrinker reduces it to the minimal pick set.
func TestEngineFindsAndMinimizesSyntheticViolation(t *testing.T) {
	// Fails iff position 3 picked alternative 2 (a single necessary,
	// sufficient decision): the minimal schedule is [0 0 0 2].
	syn := &syntheticTarget{points: 6, fan: 3, fail: func(p []int) bool { return p[3] == 2 }}
	rep, err := Run(syn.target(), Options{Schedules: 400, MaxDepth: 6, Branch: 3, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) != 1 {
		t.Fatalf("got %d counterexamples, want 1 (one rule)", len(rep.Counterexamples))
	}
	ce := rep.Counterexamples[0]
	if !ce.Minimized {
		t.Fatalf("counterexample not minimized: %+v", ce)
	}
	if want := []int{0, 0, 0, 2}; !reflect.DeepEqual(ce.Schedule, want) {
		t.Fatalf("minimized schedule %v, want %v", ce.Schedule, want)
	}
	if ce.Rule != "synthetic" {
		t.Fatalf("rule %q, want synthetic", ce.Rule)
	}
}

// TestRandomStrategyIsSeedDeterministic: same seed, same walks; a
// different seed explores a different schedule multiset.
func TestRandomStrategyIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) (*Report, []string) {
		syn := &syntheticTarget{points: 8, fan: 3}
		rep, err := Run(syn.target(), Options{Strategy: Random, Schedules: 40, MaxDepth: 8, Branch: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return rep, syn.sortedRuns()
	}
	repA, runsA := run(3)
	repB, runsB := run(3)
	if !reflect.DeepEqual(repA, repB) || !reflect.DeepEqual(runsA, runsB) {
		t.Fatal("same seed produced different explorations")
	}
	_, runsC := run(4)
	if reflect.DeepEqual(runsA, runsC) {
		t.Fatal("different seeds produced identical walks (suspicious)")
	}
}

// TestOptionsValidate rejects unknown strategies.
func TestOptionsValidate(t *testing.T) {
	syn := &syntheticTarget{points: 2, fan: 2}
	if _, err := Run(syn.target(), Options{Strategy: "bfs"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
