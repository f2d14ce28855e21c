package explore

import (
	"testing"

	"rtlock/internal/core"
)

// realTargets returns exploration targets over generated workloads for
// a representative protocol slice: the two ceiling variants exercise
// the full PCP auditor set, HP exercises the wound/restart path, and
// the distributed targets exercise the message-order and 2PC vote
// decision points that only exist there.
func realSingleTargets(t *testing.T) []Target {
	t.Helper()
	var ts []Target
	for _, letter := range []core.Protocol{core.ProtoCeiling, core.ProtoTwoPLPrio, core.ProtoTwoPLHP} {
		row, err := core.Lookup(letter)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := SingleSiteTarget(SingleSiteOpts{Proto: string(letter), NewManager: row.New})
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tgt)
	}
	return ts
}

// TestCanonicalChooserMatchesNilChooserOnRealTarget: attaching a
// chooser that always picks canonically must reproduce the chooser-less
// run byte for byte on a full generated workload — the engine's
// baseline schedule is exactly the production schedule.
func TestCanonicalChooserMatchesNilChooserOnRealTarget(t *testing.T) {
	for _, tgt := range realSingleTargets(t) {
		bare, err := tgt.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := tgt.Run(replayChooser(nil))
		if err != nil {
			t.Fatal(err)
		}
		if bare.JournalHash != canon.JournalHash {
			t.Errorf("%s: canonical chooser diverged from chooser-less run", tgt.Name)
		}
	}
}

// TestCleanTreeSingleSiteExploresClean: with the protocols intact,
// exploration over the tuned single-site workload finds no violations
// and actually reaches decision points (the run is not vacuous).
func TestCleanTreeSingleSiteExploresClean(t *testing.T) {
	for _, tgt := range realSingleTargets(t) {
		rep, err := Run(tgt, Options{Strategy: DFS, Schedules: 24, MaxDepth: 16, Branch: 2, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Counterexamples) != 0 {
			ce := rep.Counterexamples[0]
			t.Errorf("%s: clean tree produced a counterexample %v: %v", tgt.Name, ce.Schedule, ce.Violations)
		}
		if rep.Deepest == 0 {
			t.Errorf("%s: exploration vacuous, no decision points reached", tgt.Name)
		}
	}
}

// TestCleanTreeDistributedExploresClean: both distributed architectures
// explore clean, including the netsim delivery-order and 2PC vote-order
// decision points.
func TestCleanTreeDistributedExploresClean(t *testing.T) {
	for _, global := range []bool{false, true} {
		tgt, err := DistributedTarget(FaultOpts{Global: global})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(tgt, Options{Strategy: Random, Schedules: 12, MaxDepth: 24, Branch: 2, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Counterexamples) != 0 {
			ce := rep.Counterexamples[0]
			t.Errorf("%s: clean tree produced a counterexample %v: %v", tgt.Name, ce.Schedule, ce.Violations)
		}
		if rep.Deepest == 0 {
			t.Errorf("%s: exploration vacuous, no decision points reached", tgt.Name)
		}
	}
}
