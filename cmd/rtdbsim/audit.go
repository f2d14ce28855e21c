// The audit and replay subcommands: run a configuration with the
// deterministic replay journal attached, check protocol invariants, and
// prove run-to-run determinism by comparing journal hashes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtlock"
)

// specSelection holds the flags shared by audit and replay that pick the
// run to perform: a JSON spec file, or a quick inline configuration.
type specSelection struct {
	spec        string
	protocol    *protocolFlag
	size        int
	count       int
	seed        int64
	distributed bool
	global      bool
}

func (sel *specSelection) register(fs *flag.FlagSet) {
	fs.StringVar(&sel.spec, "spec", "", "JSON specification file (overrides the quick-config flags)")
	sel.protocol = registerProtocol(fs, "quick config:")
	fs.IntVar(&sel.size, "size", 0, "quick config: mean transaction size (0 keeps the default)")
	fs.IntVar(&sel.count, "count", 0, "quick config: transactions per run (0 keeps the default)")
	fs.Int64Var(&sel.seed, "seed", 1, "quick config: random seed")
	fs.BoolVar(&sel.distributed, "distributed", false, "quick config: distributed local-ceiling run instead of single-site")
	fs.BoolVar(&sel.global, "global", false, "quick config: distributed global-ceiling run")
}

func (sel *specSelection) load() (*rtlock.Spec, error) {
	if sel.spec != "" {
		return rtlock.LoadSpec(sel.spec)
	}
	return sel.inline()
}

// inline is the quick configuration the flags describe. Distributed
// runs use the ceiling protocol, so naming another one with -distributed
// or -global is a usage error rather than a setting silently dropped.
func (sel *specSelection) inline() (*rtlock.Spec, error) {
	wl := rtlock.WorkloadConfig{Seed: sel.seed, Count: sel.count, MeanSize: sel.size}
	p := rtlock.Protocol(*sel.protocol)
	if !sel.distributed && !sel.global {
		return &rtlock.Spec{Single: &rtlock.SingleSiteConfig{Protocol: p, Workload: wl}}, nil
	}
	if p != rtlock.Ceiling {
		return nil, usagef("-protocol %s: distributed runs use the ceiling protocol %s", p, rtlock.Ceiling)
	}
	return &rtlock.Spec{Distributed: &rtlock.DistributedConfig{Global: sel.global, Workload: wl}}, nil
}

// writeJournal exports a journal with the given encoder, creating path.
func writeJournal(path, what string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write %s: %w", what, err)
	}
	if err := encode(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", what, err)
	}
	fmt.Printf("wrote %s to %s\n", what, path)
	return nil
}

// exportJournal handles the -jsonl and -chrome output flags.
func exportJournal(j *rtlock.Journal, jsonl, chrome string) error {
	if jsonl != "" {
		if err := writeJournal(jsonl, "journal JSONL", j.EncodeJSONL); err != nil {
			return err
		}
	}
	if chrome != "" {
		if err := writeJournal(chrome, "Chrome trace", j.EncodeChromeTrace); err != nil {
			return err
		}
	}
	return nil
}

// runAudit executes one run with the configuration's protocol-invariant
// auditors checking each journal record as it is written, and keeps the
// journal to print its hash and export it.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("rtdbsim audit", flag.ContinueOnError)
	var sel specSelection
	sel.register(fs)
	var (
		jsonl      = fs.String("jsonl", "", "also write the journal as JSONL to this file")
		chrome     = fs.String("chrome", "", "also write a Chrome trace_event file (load in chrome://tracing or Perfetto)")
		maxPrint   = fs.Int("max", 20, "print at most this many violations")
		metricsDir = fs.String("metrics", "", "also sample virtual-time metrics and export the bundle into this directory")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	s, err := sel.load()
	if err != nil {
		return err
	}
	// The journal is kept, not only audited: its hash is printed and
	// it may be exported.
	k := knobs(s)
	*k.audit, *k.journal = true, true
	res, err := runWithMetrics(s, *metricsDir, "audit")
	if err != nil {
		return err
	}
	j := res.Journal
	fmt.Printf("journal: %d records  seed=%d  config=%q\n", j.Len(), j.Seed(), j.Config())
	fmt.Printf("hash: %s\n", j.HashString())
	fmt.Println(res.Summary)
	if err := exportJournal(j, *jsonl, *chrome); err != nil {
		return err
	}
	return reportViolations(res.Violations, *maxPrint)
}

// runReplay proves determinism: it executes the same configuration
// several times (or compares against a previously saved journal) and
// checks that the journals are byte-identical.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("rtdbsim replay", flag.ContinueOnError)
	var sel specSelection
	sel.register(fs)
	var (
		runs       = fs.Int("runs", 2, "independent executions to compare")
		against    = fs.String("against", "", "compare against this saved journal JSONL instead of re-running")
		jsonl      = fs.String("jsonl", "", "also write the first run's journal as JSONL to this file")
		chrome     = fs.String("chrome", "", "also write the first run's Chrome trace_event file")
		metricsDir = fs.String("metrics", "", "also sample virtual-time metrics and export the first run's bundle into this directory")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *against == "" && *runs < 2 {
		return usagef("-runs %d: replay compares at least 2 runs, or one against -against", *runs)
	}
	s, err := sel.load()
	if err != nil {
		return err
	}
	*knobs(s).journal = true
	res, err := runWithMetrics(s, *metricsDir, "replay")
	if err != nil {
		return err
	}
	first := res.Journal
	fmt.Printf("journal: %d records  seed=%d  config=%q\n", first.Len(), first.Seed(), first.Config())
	fmt.Printf("run 1: %s\n", first.HashString())
	if err := exportJournal(first, *jsonl, *chrome); err != nil {
		return err
	}
	if *against != "" {
		f, err := os.Open(*against)
		if err != nil {
			return err
		}
		saved, err := rtlock.DecodeJournalJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("read %s: %w", *against, err)
		}
		fmt.Printf("saved: %s (%s)\n", saved.HashString(), *against)
		if !rtlock.JournalsEqual(first, saved) {
			return fmt.Errorf("replay diverged from %s: %s", *against, rtlock.JournalDiff(saved, first))
		}
		fmt.Println("replay: journal matches the saved run")
		return nil
	}
	for r := 2; r <= *runs; r++ {
		res2, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Printf("run %d: %s\n", r, res2.Journal.HashString())
		if !rtlock.JournalsEqual(first, res2.Journal) {
			return fmt.Errorf("replay diverged on run %d: %s", r, rtlock.JournalDiff(first, res2.Journal))
		}
	}
	fmt.Printf("replay: %d runs byte-identical — deterministic\n", *runs)
	return nil
}
