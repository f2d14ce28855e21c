package rtlock

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rtlock/internal/core"
)

// timelineTestConfig is a small contended run with windowed telemetry.
func timelineTestConfig() SingleSiteConfig {
	cfg := SingleSiteConfig{Protocol: TwoPL, DBSize: 40,
		TimelineWindow: 2 * Second, MaxRawRecords: 32}
	cfg.Workload.Seed = 7
	cfg.Workload.Count = 120
	return cfg
}

func timelineExports(t *testing.T, res *Result) map[string][]byte {
	t.Helper()
	if res.Timeline == nil {
		t.Fatal("TimelineWindow did not populate Result.Timeline")
	}
	return map[string][]byte{
		"jsonl": TimelineJSONL(res.Timeline),
		"csv":   TimelineCSV(res.Timeline),
		"html":  HTMLReport("test", nil, nil, res.Timeline),
	}
}

func TestTimelineDeterministicAcrossRuns(t *testing.T) {
	res1, err := RunSingleSite(timelineTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := timelineExports(t, res1)
	if len(first["jsonl"]) == 0 || len(first["csv"]) == 0 {
		t.Fatal("exports are empty")
	}
	for r := 2; r <= 3; r++ {
		res, err := RunSingleSite(timelineTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		compareExports(t, "run", first, timelineExports(t, res))
	}
}

func TestTimelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first map[string][]byte
	for _, p := range []int{1, 8} {
		runtime.GOMAXPROCS(p)
		res, err := RunSingleSite(timelineTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		exp := timelineExports(t, res)
		if first == nil {
			first = exp
			continue
		}
		compareExports(t, "GOMAXPROCS", first, exp)
	}
}

// TestTimelineZeroOverhead proves windowed telemetry cannot perturb the
// simulation: the replay journal of a timeline-enabled run (with the
// raw record cap engaged) is record-identical to that of a run that
// never saw a collector. Sampling cannot perturb the rows either: the
// same run with an exported, sampled registry rolls identical windows.
func TestTimelineZeroOverhead(t *testing.T) {
	with := timelineTestConfig()
	with.Journal = true
	without := with
	without.TimelineWindow = 0
	without.MaxRawRecords = 0

	rw, err := RunSingleSite(with)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := RunSingleSite(without)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Journal == nil || ro.Journal == nil {
		t.Fatal("journals missing")
	}
	if !JournalsEqual(rw.Journal, ro.Journal) {
		t.Fatalf("timeline perturbed the run: %s", JournalDiff(ro.Journal, rw.Journal))
	}
	if rw.RawDropped == 0 {
		t.Fatal("raw record cap never engaged — the proof exercised nothing")
	}

	sampled := with
	sampled.Metrics = true
	rs, err := RunSingleSite(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Metrics.Samples() == 0 {
		t.Fatal("Metrics run took no samples — the proof exercised nothing")
	}
	if !JournalsEqual(rw.Journal, rs.Journal) {
		t.Fatalf("sampling perturbed the run: %s", JournalDiff(rw.Journal, rs.Journal))
	}
	compareExports(t, "sampled", timelineExports(t, rw), timelineExports(t, rs))
}

// TestMetricsRowsMatchTimelineOnlyRows: the window rows of a Metrics run
// render the same timeline exports as those of a timeline-only run of
// the same configuration, at a short and a long window, on one site and
// on a cluster. That is what lets one bundle export the registry and
// the window rows of a single run.
func TestMetricsRowsMatchTimelineOnlyRows(t *testing.T) {
	for _, window := range []Duration{100 * Millisecond, Second} {
		single := SingleSiteConfig{Protocol: Ceiling, TimelineWindow: window}
		single.Workload.Seed, single.Workload.Count = 3, 300
		cluster := DistributedConfig{Global: true, Sites: 3, TimelineWindow: window}
		cluster.Workload.Seed, cluster.Workload.Count = 3, 120
		for name, run := range map[string]func(metrics bool) (*Result, error){
			"single": func(metrics bool) (*Result, error) {
				cfg := single
				cfg.Metrics = metrics
				return RunSingleSite(cfg)
			},
			"cluster": func(metrics bool) (*Result, error) {
				cfg := cluster
				cfg.Metrics = metrics
				return RunDistributed(cfg)
			},
		} {
			only, err := run(false)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := run(true)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s at %v", name, window)
			if sampled.Metrics == nil || len(only.Timeline) < 2 {
				t.Fatalf("%s: %d windows and no registry — the check compares nothing", what, len(only.Timeline))
			}
			if !bytes.Equal(TimelineJSONL(only.Timeline), TimelineJSONL(sampled.Timeline)) {
				t.Errorf("%s: timeline.jsonl differs between a timeline-only and a Metrics run", what)
			}
			if !bytes.Equal(TimelineCSV(only.Timeline), TimelineCSV(sampled.Timeline)) {
				t.Errorf("%s: timeline.csv differs between a timeline-only and a Metrics run", what)
			}
		}
	}
}

// TestTimelineOnlyRunHasNoMetricsOrJournal pins the bounded-memory
// contract: a timeline-only run gets windows but neither a journal nor
// a user-visible registry.
func TestTimelineOnlyRunHasNoMetricsOrJournal(t *testing.T) {
	res, err := RunSingleSite(timelineTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline windows")
	}
	if res.Journal != nil {
		t.Fatal("timeline-only run created a journal")
	}
	if res.Metrics != nil {
		t.Fatal("timeline-only run leaked the private probe registry")
	}
	if res.RawRetained > 32 {
		t.Fatalf("retained %d raw records past cap 32", res.RawRetained)
	}
}

// TestSketchParityAcrossProtocols runs every protocol's bench shape
// twice — once with full raw retention (the exact percentile path) and
// once with the cap engaged (the sketch path) — and requires the
// sketched P50/P99 to land within one sketch bucket of the exact
// values. The cap cannot change the simulation, so any difference is
// pure sketch error.
func TestSketchParityAcrossProtocols(t *testing.T) {
	const bucket = Millisecond // stats.DefaultSketchWidth
	for _, proto := range core.Letters() {
		cfg := SingleSiteConfig{Protocol: proto, DBSize: 40}
		cfg.Workload.Seed = 11
		cfg.Workload.Count = 150

		exact, err := RunSingleSite(cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		capped := cfg
		capped.MaxRawRecords = 16
		sketched, err := RunSingleSite(capped)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if sketched.RawDropped == 0 {
			t.Fatalf("%s: cap never engaged", proto)
		}
		for _, q := range []struct {
			name      string
			want, got Duration
		}{
			{"p50", exact.Summary.RespP50, sketched.Summary.RespP50},
			{"p99", exact.Summary.RespP99, sketched.Summary.RespP99},
		} {
			diff := q.got - q.want
			if diff < 0 {
				diff = -diff
			}
			if diff > bucket {
				t.Errorf("%s: sketch %s = %v vs exact %v (diff %v > one bucket)",
					proto, q.name, q.got, q.want, diff)
			}
		}
	}
}

// TestProbesReadAtWindowBoundary: the kernel closes each window at its
// boundary, so probe activity between a boundary and the next finish
// belongs to the later window. Under deadlock detection, tx 1 holds
// object 1 and tx 2 (arriving at 7ms, after the first boundary) holds
// object 2; each then waits for the other's object until the detector
// restarts tx 1 at 16ms, ending tx 2's 1ms wait. No transaction
// finishes before 24ms, yet in 6ms windows the arrival shows in
// [6,12) and the wait in [12,18), not in the first window the next
// finish would have closed.
func TestProbesReadAtWindowBoundary(t *testing.T) {
	ms := func(n int64) Time { return Time(n * int64(Millisecond)) }
	w := func(obj ObjectID) Op { return Op{Obj: obj, Mode: Write} }
	res, err := RunSingleSite(SingleSiteConfig{
		Protocol: TwoPLDetect, CPUPerObj: 8 * Millisecond, MemoryResident: true,
		TimelineWindow: 6 * Millisecond,
		Workload: WorkloadConfig{Transactions: []*Txn{
			{ID: 1, Kind: Update, Arrival: 0, Deadline: ms(1000), Ops: []Op{w(1), w(2)}},
			{ID: 2, Kind: Update, Arrival: ms(7), Deadline: ms(100), Ops: []Op{w(2), w(1)}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	type cols struct{ end, processed, inFlight, lockWaitP50 int64 }
	var got []cols
	for _, r := range res.Timeline {
		got = append(got, cols{r.End, r.Processed, r.InFlight, r.LockWaitP50})
	}
	want := []cols{
		{6_000, 0, 1, 0},
		{12_000, 0, 2, 0},
		{18_000, 0, 2, 1_000}, // the bucket holding tx 2's 1ms wait
		{24_000, 0, 2, 0},
		{30_000, 1, 1, 10_000}, // tx 1's 8ms wait behind tx 2
		{36_000, 0, 1, 0},
		{40_000, 1, 0, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows (end, processed, in flight, lock wait p50) = %v, want %v", got, want)
	}
}
