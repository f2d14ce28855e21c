// The metrics subcommand: run one configuration with the deterministic
// virtual-time metrics registry, the window ring and the
// lock-contention profiler attached and export the observability
// bundle — Prometheus text exposition, the registry's CSV time series,
// the window rows as CSV and JSONL, pprof-style folded blocking-chain
// stacks, and a static HTML report. All of them gather as the run goes,
// so the run keeps no journal records however long it is, but the lock
// profile grows with the blocking chains it sees. With -runs > 1 the
// exports are re-generated from independent executions and must be
// byte-identical, proving the observability layer is as deterministic
// as the simulation it watches.
package main

import (
	"flag"
	"fmt"
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
		out      = fs.String("out", "metrics-out", "directory for the bundle: metrics.prom, metrics.csv, timeline.csv, timeline.jsonl, profile.folded, report.html")
		windowMs = fs.Float64("window", 0, "window width in virtual milliseconds: one row per window (0 keeps the spec's timelineWindowMs, else its metricsIntervalMs, else 100)")
		topk     = fs.Int("topk", 10, "hottest objects to print and embed in the report")
		runs     = fs.Int("runs", 1, "independent executions; with >1 every export must be byte-identical")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	run, title, err := metricsRunner(fs, &sel, *windowMs)
	if err != nil {
		return err
	}
	first, res, err := identicalRuns(*runs, run, func(res *rtlock.Result) (bundle, error) {
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
	fmt.Printf("raw records retained/dropped %d/%d\n", res.RawRetained, res.RawDropped)
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

// metricsRunner builds the run closure from the selection, like audit
// and replay. The run has one window width: a positive windowMs, else
// the spec's own (see rtlock.SingleSiteConfig.TimelineWindow).
func metricsRunner(fs *flag.FlagSet, sel *specSelection, windowMs float64) (func() (*rtlock.Result, error), string, error) {
	s, err := sel.load(fs)
	if err != nil {
		return nil, "", err
	}
	title := filepath.Base(sel.spec)
	if sel.spec == "" {
		title = specTitle(s)
	}
	k := knobs(s)
	*k.metrics = true
	if windowMs > 0 {
		*k.timelineWindow = sim.FromMillis(windowMs)
	}
	if *k.maxRawRecords <= 0 {
		*k.maxRawRecords = defaultMaxRaw
	}
	return s.Run, title, nil
}

// defaultMaxRaw caps the per-transaction records of a metrics run whose
// spec sets no cap. The bundle does not export them, so the cap keeps
// them from growing with the run.
const defaultMaxRaw = 4096

// metricsBundle renders the six files of the bundle from a completed run.
func metricsBundle(res *rtlock.Result, title string, topk int) (bundle, error) {
	if res.Metrics == nil {
		return nil, fmt.Errorf("metrics: run produced no registry")
	}
	prof := res.LockProfile.Top(topk)
	return bundle{
		{"metrics.prom", res.Metrics.Prometheus()},
		{"metrics.csv", rtlock.MetricsCSV(res.Metrics, res.Timeline)},
		{"timeline.csv", rtlock.TimelineCSV(res.Timeline)},
		{"timeline.jsonl", rtlock.TimelineJSONL(res.Timeline)},
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
