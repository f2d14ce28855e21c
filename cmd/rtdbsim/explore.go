// The explore subcommand: systematic schedule-space exploration over
// the deterministic kernel. It drives one protocol configuration (or,
// with -all, every protocol of the study plus both distributed
// architectures) through alternative scheduling decisions and fails
// with exit code 1 if any explored schedule violates the protocol's
// invariants, printing the minimized decision schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rtlock"
	"rtlock/internal/experiments"
	"rtlock/internal/explore"
)

func runExplore(args []string) error {
	fs := flag.NewFlagSet("rtdbsim explore", flag.ContinueOnError)
	var (
		strategy    = fs.String("strategy", "dfs", "exploration strategy: dfs|random")
		schedules   = fs.Int("schedules", 64, "schedule budget per target")
		depth       = fs.Int("depth", 24, "max decision positions that may deviate from canonical")
		branch      = fs.Int("branch", 3, "max alternatives per decision position (canonical included)")
		workers     = fs.Int("workers", 1, "parallel schedule runners (never affects the explored set)")
		seed        = fs.Int64("seed", 1, "exploration seed (random strategy) and workload seed")
		minimize    = fs.Bool("minimize", true, "shrink counterexamples to locally minimal schedules")
		protocol    = registerProtocol(fs, "single-site")
		distributed = fs.Bool("distributed", false, "explore a distributed cluster instead of a single site")
		global      = fs.Bool("global", false, "with -distributed or -faults: global-ceiling architecture (default local)")
		faultsMode  = fs.Bool("faults", false, "fault-space exploration: search over failure schedules (crashes, message fates, partition cuts) of a distributed cluster")
		placement   = fs.String("placement", "", "with -faults: data placement policy shard|quorum|primary instead of the legacy fully-replicated architectures")
		all         = fs.Bool("all", false, "explore every protocol plus both distributed architectures (with -faults: both fault-space architectures too)")
		jsonl       = fs.String("jsonl", "", "write the byte-stable JSONL verdict stream to this file (\"-\" = stdout)")
		minout      = fs.String("minout", "", "write each minimized counterexample as JSON into this directory")
		faultplans  = fs.String("faultplans", "", "write each counterexample's fault plan into this directory as a distributed run spec (run it with -spec)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *strategy != string(explore.DFS) && *strategy != string(explore.Random) {
		return usagef("unknown strategy %q (want dfs or random)", *strategy)
	}

	opts := rtlock.ExploreOptions{
		Strategy:  rtlock.ExploreStrategy(*strategy),
		Schedules: *schedules,
		MaxDepth:  *depth,
		Branch:    *branch,
		Workers:   *workers,
		Seed:      *seed,
		Minimize:  *minimize,
	}
	var cfgs []rtlock.ExploreConfig
	if *all {
		for _, p := range experiments.AllProtocols() {
			cfgs = append(cfgs, rtlock.ExploreConfig{Protocol: p, Seed: *seed, Options: opts})
		}
		for _, g := range []bool{false, true} {
			cfgs = append(cfgs, rtlock.ExploreConfig{Distributed: true, Global: g, Seed: *seed, Options: opts})
		}
		if *faultsMode {
			for _, g := range []bool{false, true} {
				cfgs = append(cfgs, rtlock.ExploreConfig{Faults: true, Global: g, Seed: *seed, Options: opts})
			}
			for _, pol := range []string{"shard", "quorum", "primary"} {
				cfgs = append(cfgs, rtlock.ExploreConfig{Faults: true, Placement: pol, Seed: *seed, Options: opts})
			}
		}
	} else {
		cfgs = append(cfgs, rtlock.ExploreConfig{
			Protocol:    rtlock.Protocol(*protocol),
			Distributed: *distributed,
			Faults:      *faultsMode,
			Global:      *global,
			Placement:   *placement,
			Seed:        *seed,
			Options:     opts,
		})
	}

	var verdictOut *os.File
	if *jsonl != "" {
		if *jsonl == "-" {
			verdictOut = os.Stdout
		} else {
			f, err := os.Create(*jsonl)
			if err != nil {
				return fmt.Errorf("create verdict file: %w", err)
			}
			defer f.Close()
			verdictOut = f
		}
	}

	counterexamples := 0
	for _, cfg := range cfgs {
		rep, err := rtlock.Explore(cfg)
		if err != nil {
			return err
		}
		fmt.Println(rep.Summary())
		if verdictOut != nil {
			if err := explore.WriteVerdict(verdictOut, rep); err != nil {
				return fmt.Errorf("write verdict: %w", err)
			}
		}
		for i, ce := range rep.Counterexamples {
			counterexamples++
			fmt.Printf("  counterexample %d: rule=%s schedule=%v minimized=%t", i, ce.Rule, ce.Schedule, ce.Minimized)
			if ce.FaultPlan != nil {
				fmt.Printf(" fault_decisions=%d fault_only=%t", ce.FaultDecisions, ce.FaultOnly)
			}
			fmt.Println()
			for _, v := range ce.Violations {
				fmt.Printf("    %s\n", v)
			}
			if *minout != "" {
				if err := writeCounterexample(*minout, rep.Target, i, ce); err != nil {
					return err
				}
			}
			if *faultplans != "" {
				if err := writeFaultPlan(*faultplans, cfg, rep.Target, i, ce); err != nil {
					return err
				}
			}
		}
	}
	if counterexamples > 0 {
		return fmt.Errorf("explore: %d counterexample(s) across %d target(s)", counterexamples, len(cfgs))
	}
	return nil
}

// writeFaultPlan persists one counterexample's failure schedule as a
// distributed run spec of the explored architecture and cluster size,
// the plan under its "faults" key. The exploration target's RunPlan
// replays the plan to the counterexample's journal; "rtdbsim -spec FILE"
// (or audit, replay or metrics -spec) runs the same fault schedule on
// the facade's default cluster and load, a different run with a
// different journal. Counterexamples without fault decisions are
// skipped.
func writeFaultPlan(dir string, cfg rtlock.ExploreConfig, target string, idx int, ce rtlock.ExploreCounterexample) error {
	if ce.FaultPlan == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create fault-plan dir: %w", err)
	}
	spec := struct {
		Mode      string            `json:"mode"`
		Global    bool              `json:"global,omitempty"`
		Placement string            `json:"placement,omitempty"`
		Sites     int               `json:"sites"`
		Faults    *rtlock.FaultPlan `json:"faults"`
	}{"distributed", cfg.Global, cfg.Placement, explore.DefaultSites, ce.FaultPlan}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal fault plan: %w", err)
	}
	name := fmt.Sprintf("%s-%d-faults.json", strings.ReplaceAll(target, "/", "-"), idx)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write fault plan %s: %w", path, err)
	}
	return nil
}

// writeCounterexample persists one minimized counterexample as a JSONL
// artifact (header + counterexample), named after the target and index.
func writeCounterexample(dir, target string, idx int, ce rtlock.ExploreCounterexample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create counterexample dir: %w", err)
	}
	name := fmt.Sprintf("%s-%d.json", strings.ReplaceAll(target, "/", "-"), idx)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write counterexample: %w", err)
	}
	defer f.Close()
	rep := &rtlock.ExploreReport{Target: target, Counterexamples: []rtlock.ExploreCounterexample{ce}}
	if err := explore.WriteVerdict(f, rep); err != nil {
		return fmt.Errorf("write counterexample %s: %w", path, err)
	}
	return nil
}
