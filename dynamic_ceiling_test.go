package rtlock

import (
	"slices"
	"testing"

	"rtlock/internal/journal"
)

// dynamicCeilingLoad is the five-update load on which protocol C blocks
// a transaction a second time: shrunk from a 10 000-transaction audit
// finding (tx 5782), renumbered 1–5, shifted to t = 0 and rounded to
// 0.1 ms. Tx 5, the newcomer with the earliest deadline, registers at
// 877 ms and raises the ceiling of object 193, which tx 1 holds; tx 4,
// already blocked once, then blocks again, blamed on tx 1.
func dynamicCeilingLoad() []*Txn {
	tenthsMs := func(n int64) Time { return Time(n * int64(Millisecond) / 10) }
	tx := func(id int64, arrival, deadline Time, objs ...ObjectID) *Txn {
		t := &Txn{ID: id, Kind: Update, Arrival: arrival, Deadline: deadline}
		for _, o := range objs {
			t.Ops = append(t.Ops, Op{Obj: o, Mode: Write})
		}
		return t
	}
	return []*Txn{
		tx(1, 0, tenthsMs(27416), 1, 22, 188, 193, 177, 126, 61, 184),
		tx(2, tenthsMs(848), tenthsMs(24809), 83, 67, 195, 128, 107, 177, 39, 47, 72, 86, 96, 6, 27, 149, 106),
		tx(3, tenthsMs(6465), tenthsMs(21067), 167, 24, 176, 150, 13, 55),
		tx(4, tenthsMs(8248), tenthsMs(20727), 150, 93, 81),
		tx(5, tenthsMs(8770), tenthsMs(19324), 193),
	}
}

// TestDynamicCeilingFixture pins what the load does under every
// protocol at the single-site defaults: C and CX commit four of five
// with exactly one pcp-blocked-at-most-once finding, and the missed
// transaction is tx 5, the one with the highest priority; the seven
// protocols without ceilings commit all five with a clean audit; and C
// without tx 5 commits the other four cleanly. It is the fixture of the
// question of what C promises when transactions arrive over time, where
// a ceiling is a maximum over the registered population rather than
// over a known task set.
func TestDynamicCeilingFixture(t *testing.T) {
	const finding = "pcp-blocked-at-most-once: seq=184 t=886500 tx=4: " +
		"second lower-priority blocking episode in one attempt (blamed tx 1 on obj 81)"
	run := func(p Protocol, txs []*Txn) *Result {
		t.Helper()
		res, err := RunSingleSite(SingleSiteConfig{Protocol: p, Audit: true,
			Workload: WorkloadConfig{Transactions: txs, Count: len(txs)}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return res
	}
	committed := func(res *Result) (ids []int64) {
		for _, r := range res.Records {
			if r.Outcome == Committed {
				ids = append(ids, r.ID)
			}
		}
		return ids
	}
	for _, p := range []Protocol{Ceiling, CeilingExclusive} {
		res := run(p, dynamicCeilingLoad())
		if got := committed(res); len(got) != 4 || res.Summary.Processed != 5 || slices.Contains(got, 5) {
			t.Errorf("%s: committed %v of %d, want every transaction but tx 5", p, got, res.Summary.Processed)
		}
		if len(res.Violations) != 1 {
			t.Fatalf("%s: %d findings, want 1: %v", p, len(res.Violations), res.Violations)
		}
		if v := res.Violations[0].String(); v != finding {
			t.Errorf("%s: finding\n  %s\nwant\n  %s", p, v, finding)
		}
	}
	for _, p := range []Protocol{TwoPLPriority, TwoPL, TwoPLInherit, TwoPLHighPriority, TwoPLDetect, TimestampOrdering, TwoPLConditional} {
		res := run(p, dynamicCeilingLoad())
		if got := committed(res); len(got) != 5 || len(res.Violations) != 0 {
			t.Errorf("%s: committed %v of 5 with findings %v, want all five and none", p, got, res.Violations)
		}
	}
	res := run(Ceiling, dynamicCeilingLoad()[:4])
	if got := committed(res); len(got) != 4 || len(res.Violations) != 0 {
		t.Errorf("C without tx 5: committed %v of 4 with findings %v, want all four and none", got, res.Violations)
	}
}

// TestDynamicCeilingSteps names each step of the second blocking
// episode in C's journal of the load (pinned byte for byte as
// testdata/journals/single_C_dynamic_ceiling.bin): tx 5 registers at
// 877 ms and raises the system ceiling to its own priority; it blocks
// on object 193, held by tx 1; tx 4, blocked once already, requests
// object 81 and blocks a second time, on the ceiling, blamed on tx 1;
// and tx 5, the highest-priority transaction, misses at its deadline.
func TestDynamicCeilingSteps(t *testing.T) {
	const hash = "4e55383f3bb6c9b71057ed1e82c21174d8f942b67d47ce4447765cceafcd2927"
	jrn := goldenDynamicCeiling(t)
	if got := jrn.HashString(); got != hash {
		t.Errorf("journal hash %s, want %s", got, hash)
	}
	recs := jrn.Records()
	for _, want := range []struct {
		step string
		rec  journal.Record
	}{
		{"tx 5 registers", journal.Record{Seq: 177, At: 877000, Kind: journal.KRegister, Tx: 5}},
		{"the ceiling rises to tx 5's priority", journal.Record{Seq: 178, At: 877000, Kind: journal.KCeiling, A: 1932400, B: 5}},
		{"tx 5 blocks on obj 193, held by tx 1", journal.Record{Seq: 180, At: 877000, Kind: journal.KLockBlock, Tx: 5, Obj: 193, A: 1}},
		{"tx 4 blocks on the ceiling at obj 81, blamed on tx 1", journal.Record{Seq: 184, At: 886500, Kind: journal.KLockBlock, Tx: 4, Obj: 81, A: 1, B: 1}},
		{"tx 5 misses its deadline", journal.Record{Seq: 195, At: 1932400, Kind: journal.KDeadlineMiss, Tx: 5}},
	} {
		if got := recs[want.rec.Seq]; got != want.rec {
			t.Errorf("%s: record %d is %+v, want %+v", want.step, want.rec.Seq, got, want.rec)
		}
	}
	// The block at seq 184 is tx 4's second in its one attempt.
	blocks := 0
	for _, r := range recs[:185] {
		if r.Kind == journal.KLockBlock && r.Tx == 4 {
			blocks++
		}
	}
	if blocks != 2 {
		t.Errorf("tx 4 blocked %d times by seq 184, want 2", blocks)
	}
}
