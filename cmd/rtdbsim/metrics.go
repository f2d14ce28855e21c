// The metrics subcommand: run one configuration with the deterministic
// virtual-time metrics registry and the lock-contention profiler
// attached and export the observability bundle — Prometheus text
// exposition, CSV time series, pprof-style folded blocking-chain stacks,
// and a static HTML report. Both gather as the run goes, so the run
// keeps no journal records however long it is. With -runs > 1 the
// exports are re-generated from independent executions and must be
// byte-identical, proving the observability layer is as deterministic
// as the simulation it watches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rtlock"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
)

// runMetrics implements "rtdbsim metrics".
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("rtdbsim metrics", flag.ContinueOnError)
	var sel specSelection
	sel.register(fs)
	var (
		out      = fs.String("out", "metrics-out", "directory for metrics.prom, metrics.csv, profile.folded, report.html")
		interval = fs.Float64("interval", 0, "window width in virtual milliseconds: one metrics.csv row per window (0 picks the 100ms default)")
		topk     = fs.Int("topk", 10, "hottest objects to print and embed in the report")
		runs     = fs.Int("runs", 1, "independent executions; with >1 every export must be byte-identical")
		approach = fs.String("approach", "global", "fault-plan mode: architecture under test, global|local")
		sites    = fs.Int("sites", 3, "fault-plan mode: number of sites")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	run, title, err := metricsRunner(&sel, *interval, *approach, *sites)
	if err != nil {
		return err
	}
	first, res, err := identicalRuns("metrics", *runs, run, func(res *rtlock.Result) (bundle, error) {
		return metricsBundle(res, title, *topk)
	})
	if err != nil {
		return err
	}
	if err := first.write(*out); err != nil {
		return err
	}

	fmt.Println(res.Summary)
	fmt.Print(res.LockProfile.Top(*topk).String())
	fmt.Println(processSwitches(res.Metrics))
	fmt.Printf("metrics: %d windows (%d evicted)\n", len(res.Timeline), res.TimelineDropped)
	if *runs > 1 {
		fmt.Printf("metrics: %d runs byte-identical — deterministic\n", *runs)
	}
	return nil
}

// processSwitches is the host-time line of the report: how control
// reached the simulated processes, which is where a run's wall-clock
// time goes once the simulation logic is cheap. A self-resume costs no
// goroutine switch, a hand-off one channel send; an adopted start runs
// on the goroutine of the worker that popped it.
func processSwitches(m *metrics.Registry) string {
	via := func(how string) int64 {
		return m.Counter("sim_resumes_total", "", metrics.L("via", how)).Value()
	}
	return fmt.Sprintf("process switches: resumes self=%d handoff=%d, starts adopt=%d start=%d",
		via("self"), via("handoff"), via("adopt"), via("start"))
}

// metricsRunner builds the run closure from the selection. The -spec
// file may be either a JSON run specification or a JSON fault plan, so
// the observability bundle composes with the fault-injection
// subcommand's plan files; only a run spec has a "mode", and the file is
// parsed, and its errors reported, as the kind its content says it is.
func metricsRunner(sel *specSelection, intervalMs float64, approach string, sites int) (func() (*rtlock.Result, error), string, error) {
	var s *rtlock.Spec
	title := filepath.Base(sel.spec)
	if sel.spec == "" {
		var err error
		if s, err = sel.inline(); err != nil {
			return nil, "", err
		}
		title = specTitle(s)
	} else {
		data, err := os.ReadFile(sel.spec)
		if err != nil {
			return nil, "", err
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			return nil, "", fmt.Errorf("%s: %w", sel.spec, err)
		}
		if _, isRunSpec := keys["mode"]; !isRunSpec {
			wl := rtlock.WorkloadConfig{Seed: sel.seed, Count: sel.count, MeanSize: sel.size}
			s, err = faultPlanSpec(sel.spec, data, approach, sites, wl)
		} else if s, err = rtlock.ParseSpec(data); err != nil {
			err = fmt.Errorf("%s: %w", sel.spec, err)
		}
		if err != nil {
			return nil, "", err
		}
	}
	k := knobs(s)
	*k.metrics = true
	*k.metricsInterval = sim.FromMillis(intervalMs)
	if *k.maxRawRecords <= 0 {
		*k.maxRawRecords = defaultMaxRaw
	}
	return s.Run, title, nil
}

// defaultMaxRaw caps the per-transaction records of a metrics or
// timeline run whose spec sets no cap. Neither bundle exports them, so
// the cap keeps a run's memory bounded however long it is.
const defaultMaxRaw = 4096

// faultPlanSpec is the run of the fault plan in file name: a
// distributed run of the load wl under the plan.
func faultPlanSpec(name string, plan []byte, approach string, sites int, wl rtlock.WorkloadConfig) (*rtlock.Spec, error) {
	fp, err := rtlock.ParseFaultPlan(plan)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	global, err := globalApproach(approach)
	if err != nil {
		return nil, err
	}
	return &rtlock.Spec{Distributed: &rtlock.DistributedConfig{Global: global, Sites: sites, Faults: fp, Workload: wl}}, nil
}

// metricsBundle renders the four export formats from a completed run.
func metricsBundle(res *rtlock.Result, title string, topk int) (bundle, error) {
	if res.Metrics == nil {
		return nil, fmt.Errorf("metrics: run produced no registry")
	}
	prof := res.LockProfile.Top(topk)
	return bundle{
		{"metrics.prom", res.Metrics.Prometheus()},
		{"metrics.csv", rtlock.MetricsCSV(res.Metrics, res.Timeline)},
		{"profile.folded", prof.Folded()},
		{"report.html", rtlock.HTMLReport("rtlock metrics — "+title, res.Metrics, prof, res.Timeline)},
	}, nil
}

// runWithMetrics is the -metrics flag of the main -spec path, audit and
// replay: run s and, when a directory is given, export the run's
// observability bundle into it.
func runWithMetrics(s *rtlock.Spec, dir, title string) (*rtlock.Result, error) {
	k := knobs(s)
	*k.metrics = *k.metrics || dir != ""
	res, err := s.Run()
	if err != nil || dir == "" {
		return res, err
	}
	b, err := metricsBundle(res, title, 10)
	if err != nil {
		return nil, err
	}
	return res, b.write(dir)
}
