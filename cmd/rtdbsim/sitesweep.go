package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rtlock"
	"rtlock/internal/experiments"
)

// runSiteSweep drives the placement site-count sweep: every selected
// placement policy at every site count, reporting throughput, deadline
// misses, and the consistency tax against the primary-only baseline.
func runSiteSweep(args []string) error {
	fs := flag.NewFlagSet("rtdbsim sitesweep", flag.ContinueOnError)
	var (
		sitesArg  = fs.String("sites", "", "comma-separated site counts (empty keeps the default 1,2,4,8,16)")
		policies  = fs.String("policies", "", "comma-separated placement policies full|shard|quorum|primary (empty sweeps all four)")
		runs      = fs.Int("runs", 0, "runs per grid cell (0 keeps the default)")
		count     = fs.Int("count", 0, "transactions per run (0 keeps the default)")
		seed      = fs.Int64("seed", 1, "base random seed")
		locality  = fs.Float64("locality", -1, "home-shard access probability for placement workloads (negative keeps the default)")
		mix       = fs.Float64("mix", -1, "read-only transaction fraction (negative keeps the default)")
		replicas  = fs.Int("replicas", 0, "quorum replica-set size K (0 keeps the cluster default)")
		readQ     = fs.Int("readq", 0, "quorum read size R (0 keeps the default majority)")
		writeQ    = fs.Int("writeq", 0, "quorum write size W (0 keeps the default K-R+1)")
		auditRuns = fs.Bool("audit", false, "check every run with its invariant auditors and fail on violations")
		csv       = fs.Bool("csv", false, "also print CSV after each table")
		jsonOut   = fs.Bool("json", false, "print the figures as one JSON document instead of text tables")
		outDir    = fs.String("out", "", "also write <name>.txt and <name>.csv per figure into this directory")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	p := rtlock.DefaultSiteSweepParams()
	p.BaseSeed = *seed
	p.Audit = *auditRuns
	if *runs > 0 {
		p.Runs = *runs
	}
	if *count > 0 {
		p.Count = *count
	}
	if *locality >= 0 {
		p.LocalityProb = *locality
	}
	if *mix >= 0 {
		p.ReadOnlyFrac = *mix
	}
	p.Replicas, p.ReadQuorum, p.WriteQuorum = *replicas, *readQ, *writeQ
	if *sitesArg != "" {
		sites, err := parseIntList(*sitesArg)
		if err != nil {
			return usagef("bad -sites: %v", err)
		}
		p.Sites = sites
	}
	if *policies != "" {
		p.Policies = p.Policies[:0]
		for _, name := range strings.Split(*policies, ",") {
			pol, err := rtlock.ParsePlacementPolicy(strings.TrimSpace(name))
			if err != nil {
				return usagef("bad -policies: %v", err)
			}
			p.Policies = append(p.Policies, pol)
		}
	}

	thpt, missed, tax, err := rtlock.RunSiteSweep(p)
	if err != nil {
		return err
	}
	figs := []experiments.Figure{thpt, missed, tax}
	if *jsonOut {
		doc := struct {
			Figures []experiments.Figure `json:"figures"`
		}{figs}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		for _, f := range figs {
			fmt.Println(f.String())
			if *csv {
				fmt.Println(f.CSV())
			}
		}
	}
	if *outDir != "" {
		for _, f := range figs {
			if err := writeFigure(*outDir, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("site count %d out of range", n)
		}
		out = append(out, n)
	}
	return out, nil
}
