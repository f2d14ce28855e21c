package rtlock

// Golden byte-identity tests: the canonical binary journal of every
// protocol and both distributed architectures is pinned to committed
// fixtures under testdata/journals/. The hot-path optimizations (event
// pooling, index heap, batched encoding, choice-point elision) are only
// legal because these bytes cannot move; any divergence from the
// pre-optimization encodings fails here with the first differing record.
//
// Regenerate (only when an intentional journal-format change lands):
//
//	RTLOCK_REGEN_GOLDEN=1 go test -run TestGoldenJournals .

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/journal"
)

// goldenProtocols is every single-site protocol: the table's rows.
var goldenProtocols = core.Letters()

// goldenSingle runs the fixture-sized single-site workload for one
// protocol. Small enough to keep fixtures compact, large enough that
// blocking, inheritance, restarts, and deadline misses all occur.
func goldenSingle(t testing.TB, p Protocol) *journal.Journal {
	t.Helper()
	res, err := RunSingleSite(SingleSiteConfig{
		Protocol: p,
		Journal:  true,
		Workload: WorkloadConfig{Count: 60, MeanSize: 8, ReadOnlyFrac: 0.3},
	})
	if err != nil {
		t.Fatalf("single-site %s: %v", p, err)
	}
	return res.Journal
}

// goldenDynamicCeiling runs dynamicCeilingLoad under C: the load on
// which a newcomer's ceiling blocks an already blocked transaction a
// second time (see TestDynamicCeilingSteps).
func goldenDynamicCeiling(t testing.TB) *journal.Journal {
	t.Helper()
	res, err := RunSingleSite(SingleSiteConfig{
		Protocol: Ceiling,
		Journal:  true,
		Workload: WorkloadConfig{Transactions: dynamicCeilingLoad(), Count: 5},
	})
	if err != nil {
		t.Fatalf("dynamic ceiling load: %v", err)
	}
	return res.Journal
}

// goldenDist runs the fixture-sized distributed workload for one
// architecture.
func goldenDist(t testing.TB, global bool) *journal.Journal {
	t.Helper()
	res, err := RunDistributed(DistributedConfig{
		Global:   global,
		Journal:  true,
		Workload: WorkloadConfig{Count: 40, MeanSize: 4},
	})
	if err != nil {
		t.Fatalf("distributed global=%t: %v", global, err)
	}
	return res.Journal
}

// goldenPlaced runs the fixture-sized workload under a placement
// policy. Pinning these bytes freezes the KPlacement banner encoding,
// the KQuorumRead/KQuorumWrite round records, and the shard
// registration/2PC interleavings the placement auditors replay.
func goldenPlaced(t testing.TB, placement string) *journal.Journal {
	t.Helper()
	res, err := RunDistributed(DistributedConfig{
		Placement: placement,
		Sites:     3,
		Journal:   true,
		Workload:  WorkloadConfig{Count: 40, MeanSize: 4, LocalityProb: 0.7},
	})
	if err != nil {
		t.Fatalf("placement %s: %v", placement, err)
	}
	return res.Journal
}

// goldenFaulted replays a pinned chosen-fault plan — the shape a
// fault-space exploration exports for a counterexample — over a
// hand-built 3-site load (sites 0/1/2 hold objects 0-2/3-5/6-8) that
// steers traffic through the fault windows.
func goldenFaulted(t testing.TB, cfg DistributedConfig, planJSON string, txs []*Txn) *journal.Journal {
	t.Helper()
	plan, err := ParseFaultPlan([]byte(planJSON))
	if err != nil {
		t.Fatalf("pinned fault plan: %v", err)
	}
	cfg.Sites = 3
	cfg.DBSize = 9
	cfg.CommDelay = 10 * Millisecond
	cfg.CPUPerObj = 2 * Millisecond
	cfg.Journal = true
	cfg.Faults = plan
	cfg.Workload = WorkloadConfig{Transactions: txs}
	res, err := RunDistributed(cfg)
	if err != nil {
		t.Fatalf("distributed fault replay (global=%t placement=%q): %v", cfg.Global, cfg.Placement, err)
	}
	return res.Journal
}

func goldenMs(v int) Time { return Time(Duration(v) * Millisecond) }

// goldenDistFaults pins a concrete crash, two message fates, and a
// partition cut under the global ceiling manager. Pinning the journal
// bytes freezes the KFaultCrash/KFaultFate/KFaultCut record encodings
// and the crash-recovery machinery's journal behavior (WAL-forced
// votes, redo on recovery, resolver retries, retry exhaustion) that
// counterexample replay depends on.
func goldenDistFaults(t testing.TB) *journal.Journal {
	// Each transaction writes one remote primary, so each commits
	// through 2PC: tx 1 before the crash (its vote message is also
	// fate-dropped), tx 2 votes at site 1 just before the crash window
	// swallows the decision (in doubt across recovery → WAL redo +
	// resolver), tx 3 prepares toward the down site until its bounded
	// retries exhaust, tx 4 commits across the partition cut.
	return goldenFaulted(t, DistributedConfig{Global: true}, `{"chosen":{`+
		`"crashes":[{"site":1,"at":100000,"recover_at":800000}],`+
		`"fates":[{"msg":1,"from":1,"to":0,"fate":1},{"msg":4,"from":0,"to":1,"fate":2}],`+
		`"cuts":[{"site":2,"at":300000,"heal_at":360000}]}}`,
		[]*Txn{
			{ID: 1, Kind: Update, Home: 0, Arrival: 0, Deadline: Time(1 * Second),
				Ops: []Op{{Obj: 0, Mode: Write}, {Obj: 3, Mode: Write}}},
			{ID: 2, Kind: Update, Home: 0, Arrival: Time(80 * Millisecond), Deadline: Time(1500 * Millisecond),
				Ops: []Op{{Obj: 4, Mode: Write}}},
			{ID: 3, Kind: Update, Home: 2, Arrival: Time(110 * Millisecond), Deadline: Time(1600 * Millisecond),
				Ops: []Op{{Obj: 5, Mode: Write}}},
			{ID: 4, Kind: Update, Home: 0, Arrival: Time(290 * Millisecond), Deadline: Time(2 * Second),
				Ops: []Op{{Obj: 6, Mode: Write}}},
		})
}

// goldenShardFaults pins the sharded path's fault behavior: site 1 is
// down over [100ms,160ms), site 2 is cut off over [300ms,340ms), one
// prepare is duplicated and one dropped.
func goldenShardFaults(t testing.TB) *journal.Journal {
	// tx 1 writes at site 1 and is prepared there when the crash
	// swallows the decision (duplicate prepare → "dup" re-vote; in doubt
	// across recovery → WAL redo + resolver); its release is lost to the
	// down site. tx 2 (homed at the crashing site) has committed but its
	// release is still in flight, tx 3 (same home) is mid-flight: both
	// registrations are evicted by the surviving managers (KResync
	// "evict"). tx 4's registration at site 1 is lost to the outage and
	// its request reaches the rebooted manager after recovery
	// (ErrShardEvicted). tx 5's registration at site 2 is eaten by the
	// cut, its hop times out, and its release lands after the heal on a
	// manager that never learned of it. tx 6 commits across shards after
	// a prepare retry.
	return goldenFaulted(t, DistributedConfig{Placement: "shard"}, `{"chosen":{`+
		`"crashes":[{"site":1,"at":100000,"recover_at":160000}],`+
		`"fates":[{"msg":4,"from":0,"to":1,"fate":2},{"msg":22,"from":2,"to":0,"fate":1}],`+
		`"cuts":[{"site":2,"at":300000,"heal_at":340000}]}}`,
		[]*Txn{
			{ID: 1, Kind: Update, Home: 0, Arrival: goldenMs(60), Deadline: goldenMs(1000),
				Ops: []Op{{Obj: 3, Mode: Write}}},
			{ID: 2, Kind: ReadOnly, Home: 1, Arrival: goldenMs(70), Deadline: goldenMs(1000),
				Ops: []Op{{Obj: 1, Mode: Read}}},
			{ID: 3, Kind: Update, Home: 1, Arrival: goldenMs(80), Deadline: goldenMs(1000),
				Ops: []Op{{Obj: 0, Mode: Read}, {Obj: 6, Mode: Write}}},
			{ID: 4, Kind: Update, Home: 0, Arrival: goldenMs(95), Deadline: goldenMs(1000),
				Ops: []Op{{Obj: 6, Mode: Read}, {Obj: 7, Mode: Write}, {Obj: 8, Mode: Read}, {Obj: 4, Mode: Write}}},
			{ID: 5, Kind: Update, Home: 0, Arrival: goldenMs(295), Deadline: goldenMs(1200),
				Ops: []Op{{Obj: 0, Mode: Write}, {Obj: 6, Mode: Write}}},
			{ID: 6, Kind: Update, Home: 2, Arrival: goldenMs(400), Deadline: goldenMs(1400),
				Ops: []Op{{Obj: 7, Mode: Write}, {Obj: 1, Mode: Write}}},
		})
}

// goldenQuorumFaults pins the quorum path's fault behavior: site 0 is
// down over [100ms,160ms), site 2 is cut off over [300ms,340ms), one
// replica install is dropped and one acknowledgement duplicated.
func goldenQuorumFaults(t testing.TB) *journal.Journal {
	// tx 1 (home 1) writes obj 0: site 0 votes, crashes before the
	// decision (WAL redo + resolver after recovery), and the write round
	// out of the downed primary starves until the deadline. tx 2 is
	// homed at the crashing site and evicted at site 1. tx 3 runs a read
	// round and a write round whose install toward site 1 is dropped and
	// whose surviving acknowledgement arrives twice (counted once).
	// tx 4's write round is starved by the cut and misses its deadline
	// with the primary copy already installed.
	return goldenFaulted(t, DistributedConfig{Placement: "quorum"}, `{"chosen":{`+
		`"crashes":[{"site":0,"at":100000,"recover_at":160000}],`+
		`"fates":[{"msg":13,"from":2,"to":1,"fate":1},{"msg":15,"from":0,"to":2,"fate":2}],`+
		`"cuts":[{"site":2,"at":300000,"heal_at":340000}]}}`,
		[]*Txn{
			{ID: 1, Kind: Update, Home: 1, Arrival: goldenMs(60), Deadline: goldenMs(600),
				Ops: []Op{{Obj: 0, Mode: Write}}},
			{ID: 2, Kind: Update, Home: 0, Arrival: goldenMs(80), Deadline: goldenMs(1000),
				Ops: []Op{{Obj: 3, Mode: Read}, {Obj: 1, Mode: Write}}},
			{ID: 3, Kind: Update, Home: 2, Arrival: goldenMs(200), Deadline: goldenMs(1000),
				Ops: []Op{{Obj: 4, Mode: Read}, {Obj: 6, Mode: Write}}},
			{ID: 4, Kind: Update, Home: 2, Arrival: goldenMs(295), Deadline: goldenMs(500),
				Ops: []Op{{Obj: 7, Mode: Write}}},
		})
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "journals", name+".bin")
}

// checkGolden encodes jrn canonically and compares it byte-for-byte
// against the committed fixture (or rewrites the fixture when
// RTLOCK_REGEN_GOLDEN is set).
func checkGolden(t *testing.T, name string, jrn *journal.Journal) {
	t.Helper()
	var buf bytes.Buffer
	if err := jrn.EncodeBinary(&buf); err != nil {
		t.Fatalf("encode %s: %v", name, err)
	}
	got := buf.Bytes()
	path := goldenPath(name)
	if os.Getenv("RTLOCK_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes, %d records)", path, len(got), jrn.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with RTLOCK_REGEN_GOLDEN=1 to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Bytes diverged: decode nothing, but point at the first divergent
	// offset and record so the failure is actionable.
	off := 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		off++
	}
	t.Errorf("%s: journal bytes diverged from fixture at offset %d (got %d bytes, want %d); first divergent record context: %s",
		name, off, len(got), len(want), describeRecordAt(jrn, off))
}

// describeRecordAt re-encodes the journal record by record to find which
// record covers byte offset off, making byte-level failures readable.
func describeRecordAt(jrn *journal.Journal, off int) string {
	var buf bytes.Buffer
	if err := jrn.EncodeBinary(&buf); err != nil {
		return "encode error"
	}
	// Binary layout: magic + header varints, then records. Walk by
	// re-encoding prefixes; cheap at fixture sizes.
	recs := jrn.Records()
	for i := range recs {
		sub := journal.New(jrn.Seed(), jrn.Config())
		for j := 0; j <= i; j++ {
			r := recs[j]
			sub.Append(r.At, r.Kind, r.Site, r.Tx, r.Obj, r.A, r.B, r.Note)
		}
		var sb bytes.Buffer
		if err := sub.EncodeBinary(&sb); err != nil {
			return "encode error"
		}
		if sb.Len() > off {
			return fmt.Sprintf("record %d: %+v", i, recs[i])
		}
	}
	return "past last record (length divergence)"
}

// TestGoldenJournals pins the canonical journal bytes of all nine
// protocols, C on the dynamic-ceiling load, and every distributed mode,
// faulted and not, to committed fixtures.
func TestGoldenJournals(t *testing.T) {
	for _, p := range goldenProtocols {
		p := p
		t.Run("single/"+string(p), func(t *testing.T) {
			t.Parallel()
			checkGolden(t, "single_"+string(p), goldenSingle(t, p))
		})
	}
	t.Run("single/C-dynamic-ceiling", func(t *testing.T) {
		t.Parallel()
		checkGolden(t, "single_C_dynamic_ceiling", goldenDynamicCeiling(t))
	})
	t.Run("dist/local", func(t *testing.T) {
		t.Parallel()
		checkGolden(t, "dist_local", goldenDist(t, false))
	})
	t.Run("dist/global", func(t *testing.T) {
		t.Parallel()
		checkGolden(t, "dist_global", goldenDist(t, true))
	})
	for _, f := range []struct {
		name string
		run  func(testing.TB) *journal.Journal
	}{{"global", goldenDistFaults}, {"shard", goldenShardFaults}, {"quorum", goldenQuorumFaults}} {
		name, run := f.name, f.run
		t.Run("dist/"+name+"-faults", func(t *testing.T) {
			t.Parallel()
			checkGolden(t, "dist_"+name+"_faults", run(t))
		})
	}
	for _, pl := range []string{"shard", "quorum", "primary"} {
		pl := pl
		t.Run("dist/"+pl, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, "dist_"+pl, goldenPlaced(t, pl))
		})
	}
}
