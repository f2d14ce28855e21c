// The metrics subcommand: run one configuration with the deterministic
// virtual-time metrics registry attached and export the observability
// bundle — Prometheus text exposition, CSV time series, pprof-style
// folded blocking-chain stacks, and a static HTML report. With -runs > 1
// the exports are re-generated from independent executions and must be
// byte-identical, proving the observability layer is as deterministic as
// the simulation it watches.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rtlock"
	"rtlock/internal/metrics"
)

// metricsExport is one run's rendered observability bundle.
type metricsExport struct {
	prom   []byte
	csv    []byte
	folded []byte
	html   []byte
}

// runMetrics implements "rtdbsim metrics".
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("rtdbsim metrics", flag.ContinueOnError)
	var sel specSelection
	sel.register(fs)
	var (
		out      = fs.String("out", "metrics-out", "directory for metrics.prom, metrics.csv, profile.folded, report.html")
		interval = fs.Float64("interval", 0, "virtual-time snapshot interval in milliseconds (0 picks the 100ms default)")
		topk     = fs.Int("topk", 10, "hottest objects to print and embed in the report")
		runs     = fs.Int("runs", 1, "independent executions; with >1 every export must be byte-identical")
		approach = fs.String("approach", "global", "fault-plan mode: architecture under test, global|local")
		sites    = fs.Int("sites", 3, "fault-plan mode: number of sites")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *runs < 1 {
		*runs = 1
	}

	run, title, err := metricsRunner(&sel, *interval, *approach, *sites)
	if err != nil {
		return err
	}

	first, res, err := exportOnce(run, title, *topk)
	if err != nil {
		return err
	}
	for r := 2; r <= *runs; r++ {
		again, _, err := exportOnce(run, title, *topk)
		if err != nil {
			return err
		}
		for _, cmp := range []struct {
			name string
			a, b []byte
		}{
			{"metrics.prom", first.prom, again.prom},
			{"metrics.csv", first.csv, again.csv},
			{"profile.folded", first.folded, again.folded},
			{"report.html", first.html, again.html},
		} {
			if !bytes.Equal(cmp.a, cmp.b) {
				return fmt.Errorf("metrics: %s diverged on run %d — nondeterminism", cmp.name, r)
			}
		}
	}

	if err := first.write(*out); err != nil {
		return err
	}

	fmt.Println(res.Summary)
	prof := metrics.FromJournal(res.Journal, *topk)
	fmt.Print(prof.String())
	fmt.Println(processSwitches(res.Metrics))
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
// file may be either a JSON run specification or a JSON fault plan
// (sniffed in that order), so the observability bundle composes with the
// fault-injection subcommand's plan files.
func metricsRunner(sel *specSelection, intervalMs float64, approach string, sites int) (func() (*rtlock.Result, error), string, error) {
	if sel.spec != "" {
		if s, err := rtlock.LoadSpec(sel.spec); err == nil {
			s.Metrics = true
			s.MetricsIntervalMs = intervalMs
			return s.Run, filepath.Base(sel.spec), nil
		}
		data, err := os.ReadFile(sel.spec)
		if err != nil {
			return nil, "", err
		}
		fp, err := rtlock.ParseFaultPlan(data)
		if err != nil {
			return nil, "", fmt.Errorf("%s: neither run spec nor fault plan: %w", sel.spec, err)
		}
		if approach != "global" && approach != "local" {
			return nil, "", fmt.Errorf("unknown approach %q", approach)
		}
		cfg := rtlock.DistributedConfig{
			Global:          approach == "global",
			Sites:           sites,
			Faults:          fp,
			Metrics:         true,
			MetricsInterval: rtlock.Duration(intervalMs * float64(rtlock.Millisecond)),
		}
		cfg.Workload.Seed = sel.seed
		cfg.Workload.Count = sel.count
		cfg.Workload.MeanSize = sel.size
		return func() (*rtlock.Result, error) { return rtlock.RunDistributed(cfg) }, filepath.Base(sel.spec), nil
	}
	s, err := sel.load()
	if err != nil {
		return nil, "", err
	}
	s.Metrics = true
	s.MetricsIntervalMs = intervalMs
	title := s.Mode
	if s.Protocol != "" {
		title += "/" + s.Protocol
	}
	return s.Run, title, nil
}

// exportOnce executes the run and renders all four export formats.
func exportOnce(run func() (*rtlock.Result, error), title string, topk int) (*metricsExport, *rtlock.Result, error) {
	res, err := run()
	if err != nil {
		return nil, nil, err
	}
	exp, err := exportFrom(res, title, topk)
	if err != nil {
		return nil, nil, err
	}
	return exp, res, nil
}

// exportFrom renders the four export formats from a completed run.
func exportFrom(res *rtlock.Result, title string, topk int) (*metricsExport, error) {
	if res.Metrics == nil {
		return nil, fmt.Errorf("metrics: run produced no registry")
	}
	prof := metrics.FromJournal(res.Journal, topk)
	html := metrics.HTML("rtlock metrics — "+title, res.Metrics, prof)
	return &metricsExport{
		prom:   res.Metrics.Prometheus(),
		csv:    res.Metrics.CSV(),
		folded: prof.Folded(),
		html:   html,
	}, nil
}

// write persists the bundle into dir, creating it as needed.
func (e *metricsExport) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"metrics.prom", e.prom},
		{"metrics.csv", e.csv},
		{"profile.folded", e.folded},
		{"report.html", e.html},
	} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(f.data))
	}
	return nil
}

// writeMetricsBundle is the -metrics flag shared by the other
// subcommands: export the bundle of a completed metrics-enabled run.
func writeMetricsBundle(dir, title string, res *rtlock.Result) error {
	exp, err := exportFrom(res, title, 10)
	if err != nil {
		return err
	}
	return exp.write(dir)
}
