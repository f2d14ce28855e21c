// The faults subcommand: the graceful-degradation experiment, a
// severity sweep over generated fault plans in both distributed
// architectures. One run under an explicit plan is a run spec with a
// "faults" key, run like any other spec.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"rtlock/internal/experiments"
)

// runFaults implements "rtdbsim faults".
func runFaults(args []string) error {
	fs := flag.NewFlagSet("rtdbsim faults", flag.ContinueOnError)
	var (
		sites      = fs.Int("sites", 3, "number of sites")
		count      = fs.Int("count", 0, "transactions per run (0 keeps the default)")
		runs       = fs.Int("runs", 0, "runs per point (0 keeps the default)")
		seed       = fs.Int64("seed", 1, "base random seed (workload and injector)")
		severities = fs.String("severities", "", "comma-separated severities in [0,1] (empty keeps the default)")
		auditRuns  = fs.Bool("audit", true, "check every run with its invariant auditors and fail on violations")
		csv        = fs.Bool("csv", false, "also print CSV")
	)
	if err := parseFlags(fs, args); err != nil {
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
