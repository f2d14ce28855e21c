package core_test

// Metamorphic row oracles: properties over the protocol table that
// predict, from a row's CPU discipline and manager family alone, which
// rows must give identical per-transaction records on a load built so
// that their differences cannot matter. The rows are selected from
// core.Protocols, so a new row is covered by adding it.

import (
	"reflect"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/experiments"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/workload"
)

// oracleIO is the I/O delays both properties hold at: none, and the
// paper's parallel 20ms per object.
var oracleIO = []sim.Duration{0, 20 * sim.Millisecond}

// rowLoad generates a single-site load on the paper's 200-object
// database: count transactions of mean size arriving every ia on
// average, with the read-only fraction ro.
func rowLoad(t *testing.T, seed int64, count int, ia sim.Duration, size int, ro float64, io sim.Duration) []*workload.Txn {
	t.Helper()
	cat, err := db.NewCatalog(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	load, err := workload.Generate(workload.Params{
		Seed: seed, Catalog: cat, Count: count, MeanInterarrival: ia, MeanSize: size,
		ReadOnlyFrac: ro, PerObjCost: 10*sim.Millisecond + io, SlackMin: 4, SlackMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return load
}

// runRow runs load under row at the given I/O delay and returns the
// run's records and summary.
func runRow(t *testing.T, row core.ProtocolRow, load []*workload.Txn, io sim.Duration) ([]stats.TxRecord, stats.Summary) {
	t.Helper()
	res, err := experiments.RunSingleSite(experiments.SingleSiteConfig{
		Protocol: row.Letter, IOPerObj: io, MemoryResident: io == 0,
		Workload: experiments.WorkloadConfig{Transactions: load},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Records, res.Summary
}

// preemptive is the rows that run under preemptive priority, the
// discipline both properties compare within.
func preemptive() []core.ProtocolRow {
	var out []core.ProtocolRow
	for _, r := range core.Protocols {
		if r.Discipline == sim.PreemptivePriority {
			out = append(out, r)
		}
	}
	return out
}

// ceilingFamily reports whether the row's manager is a priority ceiling
// manager.
func ceilingFamily(r core.ProtocolRow) bool {
	_, ok := r.New(sim.NewKernel()).(*core.Ceiling)
	return ok
}

func mustRow(t *testing.T, p core.Protocol) core.ProtocolRow {
	t.Helper()
	r, err := core.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	return *r
}

// TestRowOracleReadOnlyLoad: when every transaction only reads, no two
// accesses conflict, so every preemptive row but the exclusive-only one
// gives the records of the ceiling protocol C, down to the microsecond.
// The exclusive-only row CX must differ: its read locks exclude each
// other, so it blocks where the others do not.
func TestRowOracleReadOnlyLoad(t *testing.T) {
	for _, io := range oracleIO {
		load := rowLoad(t, 3, 400, 100*sim.Millisecond, 10, 1, io)
		want, _ := runRow(t, mustRow(t, core.ProtoCeiling), load, io)
		for _, r := range preemptive() {
			got, sum := runRow(t, r, load, io)
			same := reflect.DeepEqual(got, want)
			switch {
			case r.Exclusive() && same:
				t.Errorf("io=%v: %s shares no reads yet matches C on a read-only load", io, r.Letter)
			case r.Exclusive() && sum.AvgBlocked == 0:
				t.Errorf("io=%v: %s never blocked on a read-only load", io, r.Letter)
			case !r.Exclusive() && !same:
				t.Errorf("io=%v: %s differs from C on a read-only load", io, r.Letter)
			}
		}
	}
}

// disjoint renames the objects of load so that no two transactions
// share one: each transaction's accesses move to objects of its own.
func disjoint(load []*workload.Txn) {
	next := core.ObjectID(0)
	for _, tx := range load {
		fresh := map[core.ObjectID]core.ObjectID{}
		for i, op := range tx.Ops {
			id, ok := fresh[op.Obj]
			if !ok {
				id = next
				fresh[op.Obj] = id
				next++
			}
			tx.Ops[i].Obj = id
		}
	}
}

// TestRowOracleDisjointLoad: when no two transactions access a common
// object, no lock request conflicts, so every preemptive row outside the
// ceiling family gives the records of two-phase locking with priority,
// P, which then never blocks. The ceiling rows differ: a request is
// checked against the system ceiling, which another transaction's held
// locks raise whether or not the request conflicts with them. Under the
// paper's parallel I/O a lower-priority transaction runs on the CPU
// while a higher-priority one waits on its I/O, so C ceiling-blocks
// requesters that conflict with nobody and misses deadlines P meets.
func TestRowOracleDisjointLoad(t *testing.T) {
	for _, io := range oracleIO {
		load := rowLoad(t, 5, 300, 150*sim.Millisecond, 8, 0.3, io)
		disjoint(load)
		want, base := runRow(t, mustRow(t, core.ProtoTwoPLPrio), load, io)
		if base.AvgBlocked != 0 {
			t.Fatalf("io=%v: P blocked %v on a disjoint load", io, base.AvgBlocked)
		}
		for _, r := range preemptive() {
			got, sum := runRow(t, r, load, io)
			same := reflect.DeepEqual(got, want)
			switch {
			case ceilingFamily(r) && (same || sum.AvgBlocked == 0):
				t.Errorf("io=%v: ceiling row %s never ceiling-blocked on a disjoint load", io, r.Letter)
			case !ceilingFamily(r) && !same:
				t.Errorf("io=%v: %s differs from P on a disjoint load", io, r.Letter)
			}
			if io > 0 && ceilingFamily(r) && sum.Missed <= base.Missed {
				t.Errorf("io=%v: ceiling row %s missed %d, no more than P's %d", io, r.Letter, sum.Missed, base.Missed)
			}
		}
	}
}
