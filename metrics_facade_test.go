package rtlock

import (
	"bytes"
	"runtime"
	"testing"
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
		"csv":    res.Metrics.CSV(),
		"folded": res.LockProfile.Folded(),
		"html":   HTMLReport("test", res.Metrics, res.LockProfile),
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
