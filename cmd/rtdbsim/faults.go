// The faults subcommand: run distributed configurations under
// deterministic fault injection — either one run under an explicit JSON
// plan file, or a severity sweep over generated plans (the
// graceful-degradation experiment).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rtlock"
	"rtlock/internal/experiments"
)

// runFaults implements "rtdbsim faults".
func runFaults(args []string) error {
	fs := flag.NewFlagSet("rtdbsim faults", flag.ContinueOnError)
	var (
		plan       = fs.String("plan", "", "JSON fault-plan file; empty runs the generated-plan severity sweep")
		approach   = fs.String("approach", "global", "plan: architecture under test, global|local (the sweep runs both)")
		sites      = fs.Int("sites", 3, "number of sites")
		count      = fs.Int("count", 0, "transactions per run (0 keeps the default)")
		runs       = fs.Int("runs", 0, "sweep: runs per point (0 keeps the default)")
		seed       = fs.Int64("seed", 1, "base random seed (workload and injector)")
		severities = fs.String("severities", "", "sweep: comma-separated severities in [0,1] (empty keeps the default)")
		auditRuns  = fs.Bool("audit", true, "check every run with its invariant auditors and fail on violations")
		csv        = fs.Bool("csv", false, "sweep: also print CSV")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *plan != "" {
		if err := ignored(fs, "with -plan", "runs", "severities", "csv"); err != nil {
			return err
		}
		data, err := os.ReadFile(*plan)
		if err != nil {
			return err
		}
		s, err := faultPlanSpec(*plan, data, *approach, *sites, rtlock.WorkloadConfig{Seed: *seed, Count: *count})
		if err != nil {
			return err
		}
		s.Distributed.Audit = *auditRuns
		res, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s\n", s.Distributed.Faults)
		fmt.Println(res.Summary)
		if res.Net != nil {
			fmt.Printf("net: %s\n", res.Net)
		}
		return reportViolations(res.Violations, len(res.Violations))
	}

	if err := ignored(fs, "in the severity sweep", "approach"); err != nil {
		return err
	}
	p := experiments.DefaultFaults()
	setSchedule(&p.Schedule, *seed, *auditRuns, *runs, *count)
	p.Sites = *sites
	if *severities != "" {
		p.Severities = p.Severities[:0]
		for _, tok := range strings.Split(*severities, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad severity %q: %w", tok, err)
			}
			p.Severities = append(p.Severities, v)
		}
	}
	fig, err := experiments.Run("faultsweep", experiments.Params{Faults: p})
	if err != nil {
		return err
	}
	fmt.Println(fig.String())
	if *csv {
		fmt.Println(fig.CSV())
	}
	return nil
}
