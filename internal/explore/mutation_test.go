package explore

import (
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// abbaTarget is the seeded-mutation fixture: two update transactions
// with opposite lock orders (T1: A then B, T2: B then A) arriving on
// the same tick. The priority ceiling protocol makes this workload
// deadlock-free — whichever transaction locks first raises the system
// ceiling above the other's priority, so the late transaction blocks
// before holding anything. Breaking the ceiling comparison for T1 (via
// core.SetCeilingBypassForTest) re-admits the classic ABBA deadlock,
// but only under the non-canonical arrival order where T2 locks B
// before T1 locks A. The canonical schedule still passes: T1 is
// dispatched first, locks A, and the intact ceiling check holds T2 at
// the door. Only exploration can expose the bug.
func abbaTarget() Target {
	return funcTarget("single/PCP-mutated", func(ch sim.Chooser) (*Outcome, error) {
		jrn := journal.New(1, "explore/mutation/pcp-abba")
		sys, err := txn.NewSystem(txn.Config{
			CPUPerObj:     5 * sim.Millisecond,
			CPUDiscipline: sim.PreemptivePriority,
			NewManager:    func(k *sim.Kernel) core.Manager { return core.NewCeiling(k) },
			Journal:       jrn,
		})
		if err != nil {
			return nil, err
		}
		load := []*workload.Txn{
			{ID: 1, Kind: workload.Update, Arrival: 0, Deadline: sim.Time(200 * sim.Millisecond),
				Ops: []workload.Op{{Obj: 0, Mode: core.Write}, {Obj: 1, Mode: core.Write}}},
			{ID: 2, Kind: workload.Update, Arrival: 0, Deadline: sim.Time(300 * sim.Millisecond),
				Ops: []workload.Op{{Obj: 1, Mode: core.Write}, {Obj: 0, Mode: core.Write}}},
		}
		sys.K.SetChooser(ch)
		sys.Load(load)
		sys.Run()
		return &Outcome{
			JournalHash: jrn.HashString(),
			Violations:  audit.Run(jrn, audit.ForManager(sys.Mgr.Name())...),
		}, nil
	})
}

// TestExplorerFindsInjectedCeilingBug is the explorer's seeded-mutation
// self-test: break the ceiling check for one transaction, confirm the
// canonical schedule still passes, and assert the explorer finds a
// violating schedule within a small budget and shrinks it to a locally
// minimal decision trace that replays to the same violation.
func TestExplorerFindsInjectedCeilingBug(t *testing.T) {
	core.SetCeilingBypassForTest(func(id int64) bool { return id == 1 })
	defer core.SetCeilingBypassForTest(nil)
	tgt := abbaTarget()

	can, err := tgt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(can.Violations) > 0 {
		t.Fatalf("mutation is too strong: canonical schedule already fails: %v", can.Violations)
	}

	rep, err := Run(tgt, Options{Strategy: DFS, Schedules: 64, MaxDepth: 16, Branch: 3, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) == 0 {
		t.Fatalf("explorer missed the injected ceiling bug: %s", rep.Summary())
	}
	ce := rep.Counterexamples[0]
	if ce.Rule != "deadlock-free" {
		t.Fatalf("counterexample rule = %q, want deadlock-free (violations: %v)", ce.Rule, ce.Violations)
	}
	if !ce.Minimized {
		t.Fatalf("shrinker did not certify minimality: %+v", ce)
	}
	if len(ce.Schedule) == 0 {
		t.Fatal("minimized schedule is empty — the violation would be canonical, not schedule-dependent")
	}

	// The minimized decision trace must replay to the same deadlock.
	replay, err := tgt.Run(replayChooser(ce.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range replay.Violations {
		if v.Rule == "deadlock-free" {
			found = true
		}
	}
	if !found {
		t.Fatalf("minimized schedule %v did not replay to a deadlock: %v", ce.Schedule, replay.Violations)
	}
	if replay.JournalHash != ce.JournalHash {
		t.Fatalf("replayed journal hash %s != counterexample hash %s", replay.JournalHash, ce.JournalHash)
	}

	// Local minimality, checked directly: dropping the last decision or
	// lowering any single pick must lose the failure.
	for i := range ce.Schedule {
		if ce.Schedule[i] == 0 {
			continue
		}
		cand := append([]int(nil), ce.Schedule...)
		cand[i]--
		out, err := tgt.Run(replayChooser(trimPicks(cand)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Violations) > 0 {
			t.Fatalf("schedule %v is not minimal: %v still fails", ce.Schedule, trimPicks(cand))
		}
	}
}

// TestExplorerExoneratesIntactCeiling is the control: the same ABBA
// workload without the mutation explores clean — every reachable
// schedule satisfies the PCP auditors, so the self-test's detection is
// attributable to the injected bug alone.
func TestExplorerExoneratesIntactCeiling(t *testing.T) {
	tgt := abbaTarget()
	rep, err := Run(tgt, Options{Strategy: DFS, Schedules: 256, MaxDepth: 16, Branch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) != 0 {
		t.Fatalf("intact PCP produced counterexamples: %s %v", rep.Summary(), rep.Counterexamples[0].Violations)
	}
	if rep.Deepest == 0 {
		t.Fatalf("exploration was vacuous (no decision points reached): %s", rep.Summary())
	}
}
