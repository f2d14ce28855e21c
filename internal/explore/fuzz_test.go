package explore

import (
	"encoding/json"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/faults"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// fuzzFaultTarget is a tiny fault-space target whose decision space
// surfaces all three fault choice kinds: crash points, message fates
// (duplicate allowed), and a partition cut. One site has no messages
// and nothing to cut, so only its crash decisions surface.
func fuzzFaultTarget(f *testing.F, sites int) Target {
	f.Helper()
	tgt, err := FaultTarget(FaultOpts{
		Global:    true,
		Sites:     sites,
		DBSize:    4,
		CommDelay: 10 * sim.Millisecond,
		CPUPerObj: 2 * sim.Millisecond,
		Space: faults.Space{
			CrashPoints: []int64{int64(10 * sim.Millisecond), int64(20 * sim.Millisecond)},
			DownFor:     int64(15 * sim.Millisecond),
			MaxMsgFates: 4,
			AllowDup:    true,
			CutPoints:   []int64{int64(15 * sim.Millisecond)},
			CutFor:      int64(20 * sim.Millisecond),
		},
		// The second arrival keeps a one-site run going past the crash
		// point at 10ms and the cut point at 15ms; the crash point at
		// 20ms lies after its last work.
		Load: []*workload.Txn{{
			ID: 1, Kind: workload.Update, Home: 0,
			Arrival: 0, Deadline: sim.Time(2 * sim.Second),
			Ops: []workload.Op{{Obj: 2, Mode: core.Write}},
		}, {
			ID: 2, Kind: workload.Update, Home: 0,
			Arrival: sim.Time(14 * sim.Millisecond), Deadline: sim.Time(2 * sim.Second),
			Ops: []workload.Op{{Obj: 1, Mode: core.Write}},
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	return tgt
}

// FuzzFaultChoice drives the fault choice-point encoding with arbitrary
// pick sequences and checks the invariants counterexample replay rests
// on: a pick sequence executes deterministically (same journal hash on
// re-run), never panics the kernel or the fault machinery, and — when
// every non-canonical pick is a fault decision — the run's exported
// fault plan survives a JSON round trip and replays byte-identically
// through RunPlan without a chooser; a run that exports no plan
// replays as the empty plan, the fault-free run. The first input byte
// picks the site count (1–3), the rest are the picks.
func FuzzFaultChoice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add([]byte{1, 0, 1, 2, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 3, 0, 2, 0, 1, 0, 0, 2})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	// One site: pick 1 at the cut decision must not isolate site 0.
	f.Add([]byte{0, 0, 0, 1})
	tgts := []Target{fuzzFaultTarget(f, 1), fuzzFaultTarget(f, 2), fuzzFaultTarget(f, 3)}

	f.Fuzz(func(t *testing.T, data []byte) {
		tgt := tgts[1]
		if len(data) > 0 {
			tgt, data = tgts[int(data[0])%len(tgts)], data[1:]
		}
		if len(data) > 64 {
			data = data[:64]
		}
		picks := make([]int, len(data))
		for i, b := range data {
			picks[i] = int(b % 4)
		}
		ch := replayChooser(picks)
		out, err := tgt.Run(ch)
		if err != nil {
			t.Fatal(err)
		}
		again, err := tgt.Run(replayChooser(picks))
		if err != nil {
			t.Fatal(err)
		}
		if again.JournalHash != out.JournalHash {
			t.Fatalf("picks %v are not deterministic: %s vs %s", picks, out.JournalHash, again.JournalHash)
		}
		for _, d := range ch.trace {
			if d.Pick != 0 && !isFaultPoint(d.Point) {
				return
			}
		}
		plan := &faults.Plan{}
		if out.FaultPlan != nil {
			spec, err := json.Marshal(out.FaultPlan)
			if err != nil {
				t.Fatalf("marshal chosen plan: %v", err)
			}
			if plan, err = faults.Parse(spec); err != nil {
				t.Fatalf("exported plan does not parse: %v\n%s", err, spec)
			}
		}
		replay, err := tgt.RunPlan(plan)
		if err != nil {
			t.Fatalf("fault-only picks %v: plan %s does not replay: %v", picks, plan, err)
		}
		if replay.JournalHash != out.JournalHash {
			t.Fatalf("fault-only picks %v: plan replay hash %s != run hash %s (plan %s)",
				picks, replay.JournalHash, out.JournalHash, plan)
		}
	})
}
