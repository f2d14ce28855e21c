package explore

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"rtlock/internal/core"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
)

// scheduleRecord is one schedule of a DFS exploration and what it gave
// on the fresh rig the exploration ran it on.
type scheduleRecord struct {
	picks []int
	out   *Outcome
}

// dfsSchedules explores tgt depth-first on one worker and returns the
// schedules in the order they ran, each with its outcome, and the
// report. Every schedule runs through Target.Run, so on a rig of its
// own.
func dfsSchedules(t *testing.T, tgt Target, o Options) ([]scheduleRecord, *Report) {
	t.Helper()
	var recs []scheduleRecord
	rec := funcTarget(tgt.Name, func(ch sim.Chooser) (*Outcome, error) {
		out, err := tgt.Run(ch)
		if err == nil {
			recs = append(recs, scheduleRecord{picks: slices.Clone(ch.(*traceChooser).prefix), out: out})
		}
		return out, err
	})
	o.Strategy, o.Workers, o.MaxCounterexamples = DFS, 1, 1<<20
	rep, err := Run(rec, o)
	if err != nil {
		t.Fatal(err)
	}
	return recs, rep
}

// rigJournal is the journal a rig's last schedule wrote.
func rigJournal(r rig) *journal.Journal {
	switch r := r.(type) {
	case *singleRig:
		return r.jrn
	case *clusterRig:
		return r.jrn
	}
	return nil
}

// sameOutcome reports how got differs from want, "" when it does not.
func sameOutcome(want, got *Outcome) string {
	if got.JournalHash != want.JournalHash {
		return "journal hash " + got.JournalHash + ", want " + want.JournalHash
	}
	vs := func(o *Outcome) []string {
		var s []string
		for _, v := range o.Violations {
			s = append(s, v.String())
		}
		return s
	}
	if !slices.Equal(vs(got), vs(want)) {
		return "violations differ"
	}
	plan := func(o *Outcome) string {
		b, _ := json.Marshal(o.FaultPlan)
		return string(b)
	}
	if plan(got) != plan(want) {
		return "fault plan " + plan(got) + ", want " + plan(want)
	}
	return ""
}

// TestRigScheduleOrderIndependence: a schedule's outcome — journal hash,
// violations, fault plan — does not depend on whether its rig is new or
// has run other schedules, in any order, before it. For each target the
// first DFS schedules run once each on a fresh rig, then all of them on
// one rig shuffled, then on that rig in reverse; a reset that forgot a
// field would carry it from one schedule into the next. The schedules
// miss deadlines (single-site and the global fault target), crash sites
// (the fault targets) and violate: protocol C runs with its ceiling
// check bypassed, so it deadlocks under some orders, and the WAL
// weakening fixture loses a forced vote under some crashes. Timestamp
// ordering reaches no decision point at this workload, so its tree is
// its one schedule, which runs forty times.
func TestRigScheduleOrderIndependence(t *testing.T) {
	core.SetCeilingBypassForTest(func(int64) bool { return true })
	defer core.SetCeilingBypassForTest(nil)
	single := func(letter core.Protocol) Target {
		row, err := core.Lookup(letter)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := SingleSiteTarget(SingleSiteOpts{Proto: string(letter), NewManager: row.New, Discipline: row.Discipline})
		if err != nil {
			t.Fatal(err)
		}
		return tgt
	}
	cluster := func(o FaultOpts, armed bool) Target {
		tgt, err := clusterTarget(o, armed)
		if err != nil {
			t.Fatal(err)
		}
		return tgt
	}
	dfs := Options{Schedules: 64, MaxDepth: 24, Branch: 3}
	// A shallow, wide tree reaches the early crash decisions.
	shallow := Options{Schedules: 64, MaxDepth: 4, Branch: 4}
	var violating, misses, crashes int
	for _, tc := range []struct {
		name string
		tgt  Target
		opts Options
	}{
		{"single/C", single(core.ProtoCeiling), dfs},
		{"single/HP", single(core.ProtoTwoPLHP), dfs},
		{"single/TO", single(core.ProtoTimestamp), dfs},
		{"dist/local", cluster(FaultOpts{}, false), dfs},
		{"fault/local", cluster(FaultOpts{}, true), shallow},
		{"fault/global", cluster(FaultOpts{Global: true}, true), shallow},
		{"fault/global/weakened", walWeakeningTarget(t, true), weakeningOpts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, rep := dfsSchedules(t, tc.tgt, tc.opts)
			if rep.Frontier > 0 && len(recs) < 40 {
				t.Fatalf("%d schedules, want at least 40", len(recs))
			}
			r, err := tc.tgt.rig()
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			var order []int
			for len(order) < 40 {
				order = append(order, rand.New(rand.NewSource(int64(len(order)))).Perm(len(recs))...)
			}
			for i := len(recs) - 1; i >= 0; i-- {
				order = append(order, i)
			}
			for _, i := range order {
				got, err := r.run(replayChooser(recs[i].picks), nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameOutcome(recs[i].out, got); d != "" {
					t.Fatalf("schedule %v on a used rig: %s", recs[i].picks, d)
				}
				kinds := map[journal.Kind]bool{}
				for _, rec := range rigJournal(r).Records() {
					kinds[rec.Kind] = true
				}
				if kinds[journal.KDeadlineMiss] {
					misses++
				}
				if kinds[journal.KSiteCrash] {
					crashes++
				}
				if len(got.Violations) > 0 {
					violating++
				}
			}
			t.Logf("%d schedules, %d runs on one rig", len(recs), len(order))
		})
	}
	t.Logf("runs on a used rig: %d violating, %d missing a deadline, %d crashing a site", violating, misses, crashes)
	if violating == 0 || misses == 0 || crashes == 0 {
		t.Error("the schedules must include violating, deadline-missing and crashing ones")
	}
}

// settleGoroutines polls until the goroutine count is back at base: a
// released worker's acknowledgement is the last thing it does, but the
// runtime retires it a moment later.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestExploreLeavesNoGoroutines: the rigs an exploration builds keep
// their kernels' idle workers between schedules, and Run closes them
// before it returns — after a clean exploration, after one stopped at
// MaxCounterexamples, and after a RunPlan replay.
func TestExploreLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	row, err := core.Lookup(core.ProtoTwoPLHP)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := SingleSiteTarget(SingleSiteOpts{Proto: "HP", NewManager: row.New})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(hp, Options{Schedules: 40, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("clean run: %d goroutines, started with %d", n, base)
	}

	weak := walWeakeningTarget(t, true)
	rep, err := Run(weak, Options{Schedules: 400, MaxDepth: 48, Workers: 2, Minimize: true, MaxCounterexamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) != 1 {
		t.Fatalf("want the run stopped at its one counterexample: %s", rep.Summary())
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("run stopped at MaxCounterexamples: %d goroutines, started with %d", n, base)
	}

	plan := rep.Counterexamples[0].FaultPlan
	if plan == nil {
		t.Fatal("the counterexample exported no fault plan")
	}
	if _, err := weak.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("RunPlan replay: %d goroutines, started with %d", n, base)
	}
}
