package rtlock

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"

	"rtlock/internal/metrics"
)

// metricsTestConfig is a small but contended single-site run: a tiny
// database forces lock conflicts so the profiler has material.
func metricsTestConfig() SingleSiteConfig {
	cfg := SingleSiteConfig{Protocol: TwoPL, DBSize: 40, Metrics: true}
	cfg.Workload.Seed = 7
	cfg.Workload.Count = 120
	return cfg
}

// metricsExports renders every export format of a completed run.
func metricsExports(t *testing.T, res *Result) map[string][]byte {
	t.Helper()
	if res.Metrics == nil || res.LockProfile == nil {
		t.Fatal("Metrics flag did not populate Result.Metrics/.LockProfile")
	}
	return map[string][]byte{
		"prom":   res.Metrics.Prometheus(),
		"csv":    MetricsCSV(res.Metrics, res.Timeline),
		"folded": res.LockProfile.Folded(),
		"html":   HTMLReport("test", res.Metrics, res.LockProfile, res.Timeline),
	}
}

func compareExports(t *testing.T, what string, a, b map[string][]byte) {
	t.Helper()
	for name, first := range a {
		if !bytes.Equal(first, b[name]) {
			t.Errorf("%s: %s export diverged (%d vs %d bytes)", what, name, len(first), len(b[name]))
		}
	}
}

func TestMetricsDeterministicAcrossRuns(t *testing.T) {
	res1, err := RunSingleSite(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := metricsExports(t, res1)
	if len(first["prom"]) == 0 || len(first["csv"]) == 0 {
		t.Fatal("exports are empty")
	}
	for r := 2; r <= 3; r++ {
		res, err := RunSingleSite(metricsTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		compareExports(t, "run", first, metricsExports(t, res))
	}
}

func TestMetricsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first map[string][]byte
	for _, p := range []int{1, 8} {
		runtime.GOMAXPROCS(p)
		res, err := RunSingleSite(metricsTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		exp := metricsExports(t, res)
		if first == nil {
			first = exp
			continue
		}
		compareExports(t, "GOMAXPROCS", first, exp)
	}
}

func TestMetricsDeterministicDistributed(t *testing.T) {
	cfg := DistributedConfig{Global: true, Sites: 3, Metrics: true}
	cfg.Workload.Seed = 3
	cfg.Workload.Count = 60
	res1, err := RunDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareExports(t, "distributed run", metricsExports(t, res1), metricsExports(t, res2))
}

// TestMetricsZeroOverhead proves attaching the metrics registry cannot
// perturb the simulation: the replay journal of a metrics-enabled run is
// record-identical to that of a run that never saw a registry.
func TestMetricsZeroOverhead(t *testing.T) {
	with := metricsTestConfig()
	with.Journal = true
	without := with
	without.Metrics = false

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
		t.Fatalf("metrics perturbed the run: %s", JournalDiff(ro.Journal, rw.Journal))
	}
}

// TestMetricsKeepsNoJournal: the lock profile is built as the run goes,
// so a Metrics-only run keeps no records, single-site or distributed
// under faults, and exports exactly what the same run exports with its
// journal kept.
func TestMetricsKeepsNoJournal(t *testing.T) {
	spec, err := LoadSpec("examples/specs/distributed-faults.json")
	if err != nil {
		t.Fatal(err)
	}
	plan := spec.Distributed.Faults
	for _, tc := range []struct {
		name string
		run  func(journal bool) (*Result, error)
	}{
		{"single-site", func(journal bool) (*Result, error) {
			cfg := metricsTestConfig()
			cfg.Journal = journal
			return RunSingleSite(cfg)
		}},
		{"faulted distributed", func(journal bool) (*Result, error) {
			cfg := DistributedConfig{Global: true, Sites: 3, Faults: plan, Metrics: true, Journal: journal}
			cfg.Workload.Seed = 3
			cfg.Workload.Count = 200
			return RunDistributed(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			only, err := tc.run(false)
			if err != nil {
				t.Fatal(err)
			}
			kept, err := tc.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if only.Journal != nil {
				t.Fatalf("Metrics-only run kept a %d-record journal", only.Journal.Len())
			}
			if kept.Journal == nil || kept.Journal.Len() == 0 {
				t.Fatal("Journal run kept no records")
			}
			if tc.name == "faulted distributed" && only.LockProfile.Recovery.Crashes == 0 {
				t.Fatal("no site crashed — the faulted case exercised nothing")
			}
			compareExports(t, tc.name, metricsExports(t, kept), metricsExports(t, only))
		})
	}
}

// TestLockProfileTopMatchesReplay: the profile a run builds as it goes
// equals the replay of its journal, and cutting it to the k hottest
// objects equals replaying with that topK — over a contended run and
// over a faulted golden journal. Replaying only reads: both journals
// hash the same after every replay as before the first.
func TestLockProfileTopMatchesReplay(t *testing.T) {
	cfg := metricsTestConfig()
	cfg.Journal = true
	res, err := RunSingleSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runHash := res.Journal.Hash()
	if !reflect.DeepEqual(res.LockProfile, metrics.FromJournal(res.Journal, 0)) {
		t.Fatal("live lock profile differs from the replay of the run's journal")
	}
	faulted := goldenDistFaults(t)
	faultedHash := faulted.Hash()
	for _, tc := range []struct {
		name string
		j    *Journal
		p    *LockProfile
	}{
		{"contended", res.Journal, res.LockProfile},
		{"faulted golden", faulted, metrics.FromJournal(faulted, 0)},
	} {
		if tc.p.TotalObjects < 4 {
			t.Fatalf("%s: %d objects — too few for the cut to matter", tc.name, tc.p.TotalObjects)
		}
		for _, k := range []int{0, 1, 3, 50} {
			if got, want := tc.p.Top(k), metrics.FromJournal(tc.j, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Top(%d) = %+v, want %+v", tc.name, k, got, want)
			}
		}
	}
	if res.Journal.Hash() != runHash || faulted.Hash() != faultedHash {
		t.Error("replaying a journal into a lock profile changed the journal")
	}
}

func TestMetricsRegistrySamplesAndProbes(t *testing.T) {
	res, err := RunSingleSite(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Samples() == 0 {
		t.Fatal("registry took no virtual-time samples")
	}
	prom := string(res.Metrics.Prometheus())
	for _, fam := range []string{
		"sim_events_total", "sim_resumes_total", "cpu_dispatches_total", "lock_requests_total",
		"lock_wait_ticks", "txn_commits_total", "txn_inflight",
	} {
		if !containsMetric(prom, fam) {
			t.Errorf("exposition missing family %q", fam)
		}
	}
}

func TestMetricsLockProfileNamesContendedObjects(t *testing.T) {
	res, err := RunSingleSite(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := res.LockProfile
	if len(p.Objects) == 0 || p.TotalWaitTicks == 0 {
		t.Fatalf("contended run produced an empty profile: %+v", p)
	}
	for _, o := range p.Objects {
		if o.Obj < 0 {
			t.Errorf("profile row without an object id: %+v", o)
		}
	}
	if len(p.Stacks) == 0 {
		t.Error("no folded blocking-chain stacks")
	}
}

func TestMetricsDisabledLeavesResultNil(t *testing.T) {
	cfg := metricsTestConfig()
	cfg.Metrics = false
	res, err := RunSingleSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil || res.LockProfile != nil {
		t.Fatal("Metrics=false must leave Result.Metrics/.LockProfile nil")
	}
}

// containsMetric reports whether the exposition text contains a sample
// of the family (bare or labeled).
func containsMetric(prom, fam string) bool {
	return bytes.Contains([]byte(prom), []byte("\n"+fam+" ")) ||
		bytes.Contains([]byte(prom), []byte("\n"+fam+"{")) ||
		bytes.Contains([]byte(prom), []byte("# TYPE "+fam+" "))
}

// TestGoldenMetricsCSV pins metrics.csv of the quickstart spec, one row
// per 100ms window, byte for byte.
func TestGoldenMetricsCSV(t *testing.T) {
	data, err := os.ReadFile("examples/specs/single-ceiling.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	s.Single.Metrics = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics/single-ceiling.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := MetricsCSV(res.Metrics, res.Timeline); !bytes.Equal(got, want) {
		t.Fatalf("metrics.csv diverged from the golden file (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMetricsRingKeepsNewestWindows: a Metrics run longer than
// TimelineMaxWindows keeps exactly the newest windows, snapshots and
// all, and reports the rest as evicted.
func TestMetricsRingKeepsNewestWindows(t *testing.T) {
	full, err := RunSingleSite(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	const keep = 8
	cfg := metricsTestConfig()
	cfg.TimelineMaxWindows = keep
	capped, err := RunSingleSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(full.Timeline)
	if full.TimelineDropped != 0 || n <= keep {
		t.Fatalf("uncapped run: %d windows, %d evicted", n, full.TimelineDropped)
	}
	if len(capped.Timeline) != keep || capped.TimelineDropped != n-keep {
		t.Fatalf("capped run: %d windows, %d evicted; want %d, %d", len(capped.Timeline), capped.TimelineDropped, keep, n-keep)
	}
	if !reflect.DeepEqual(capped.Timeline, full.Timeline[n-keep:]) {
		t.Fatal("capped run's windows are not the uncapped run's newest")
	}
	fullCSV := bytes.SplitAfter(MetricsCSV(full.Metrics, full.Timeline), []byte("\n"))
	want := bytes.Join(append(fullCSV[:1], fullCSV[len(fullCSV)-1-keep:]...), nil)
	if got := MetricsCSV(capped.Metrics, capped.Timeline); !bytes.Equal(got, want) {
		t.Fatalf("capped metrics.csv is not the header plus the newest %d lines:\n%s", keep, got)
	}
}
