// Command rtdbsim regenerates the paper's tables and figures, or runs a
// custom single configuration, printing aligned text tables and
// optionally CSV.
//
// Usage:
//
//	rtdbsim -experiment fig2            # any figure name -h lists, or all
//	rtdbsim -experiment fig3 -runs 3 -count 200 -csv
//	rtdbsim -experiment custom -protocol C -size 12 -runs 5
//
// Two subcommands wrap the deterministic replay journal:
//
//	rtdbsim audit -protocol HP -count 200      # run + check protocol invariants
//	rtdbsim audit -spec run.json -chrome t.json
//	rtdbsim replay -protocol C -runs 3         # prove byte-identical journals
//	rtdbsim replay -spec run.json -against saved.jsonl
//
// A third subcommand runs distributed configurations under deterministic
// fault injection (site crashes, message loss, partitions):
//
//	rtdbsim faults -plan examples/specs/faultplan.json -approach global
//	rtdbsim faults -severities 0,0.5,1 -runs 4 -count 120
//
// A fourth exports the deterministic virtual-time observability bundle
// (Prometheus exposition, CSV time series, folded blocking-chain stacks,
// HTML report); -spec accepts a run spec or a fault plan:
//
//	rtdbsim metrics -protocol C -count 200 -out metrics-out
//	rtdbsim metrics -spec examples/specs/faultplan.json -runs 2
//
// The main -spec path and the audit/replay subcommands accept a
// -metrics directory to export the same bundle alongside their output.
//
// A fifth explores the schedule space: alternative scheduling decisions
// instead of the single canonical order, every explored schedule
// audited, violations shrunk to minimal decision traces:
//
//	rtdbsim explore -protocol C -schedules 64 -minimize
//	rtdbsim explore -all -jsonl verdict.jsonl -minout counterexamples
//
// A sixth rolls a run into virtual-time windows and exports the
// streaming timeline (JSONL rows, CSV, HTML report) in bounded memory,
// suitable for million-transaction soaks; the main -spec path accepts a
// -timeline directory for the same bundle:
//
//	rtdbsim timeline -protocol C -count 1000000 -window 10000 -burst 3
//	rtdbsim timeline -spec run.json -runs 2 -out timeline-out
//
// A seventh sweeps the data-placement spectrum (full replication,
// primary-copy sharding, quorum replication, uncoordinated primary-only)
// across site counts and prices each coordinated policy's consistency
// tax against the no-2PC baseline:
//
//	rtdbsim sitesweep -sites 1,2,4,8,16 -audit
//	rtdbsim sitesweep -policies shard,quorum,primary -json
//
// Every command also takes -cpuprofile and -memprofile, written when it
// returns and read with go tool pprof:
//
//	rtdbsim explore -protocol HP -schedules 3600 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"rtlock"
	"rtlock/internal/core"
	"rtlock/internal/experiments"
)

// Exit codes: 0 success (including -h/-help), 1 runtime failure
// (experiment error, invariant violation, counterexample found), 2 usage
// error (unknown subcommand or flag, stray positional argument).
func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "rtdbsim:", err)
	}
	os.Exit(exitCode(err))
}

// usageError marks command-line mistakes so main can exit 2 instead of
// 1; the underlying flag machinery has already printed the usage text.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usagef(format string, a ...any) error {
	return &usageError{fmt.Errorf(format, a...)}
}

// protocolFlag is a -protocol value: a letter of the protocol table.
// Checking in Set makes an unknown letter a usage error that lists the
// table's, like any other bad flag value.
type protocolFlag string

func (f *protocolFlag) String() string { return string(*f) }

func (f *protocolFlag) Set(s string) error {
	*f = protocolFlag(s)
	_, err := core.Lookup(core.Protocol(s))
	return err
}

// registerProtocol adds -protocol (default C) to fs; the help text is
// rendered from the table.
func registerProtocol(fs *flag.FlagSet, what string) *protocolFlag {
	f := protocolFlag(rtlock.Ceiling)
	fs.Var(&f, "protocol", what+" protocol "+core.LetterList())
	return &f
}

// reportViolations is the tail of every run: if it was audited (the
// facade then leaves Violations non-nil), list the violations (at most
// maxPrint of them) and fail if there are any.
func reportViolations(vs []rtlock.Violation, maxPrint int) error {
	if vs == nil {
		return nil
	}
	for i, v := range vs {
		if i >= maxPrint {
			fmt.Printf("... and %d more\n", len(vs)-i)
			break
		}
		fmt.Println(v)
	}
	if len(vs) > 0 {
		return fmt.Errorf("audit: %d invariant violations", len(vs))
	}
	fmt.Println("audit: all invariants hold")
	return nil
}

// globalApproach maps an -approach value onto DistributedConfig.Global.
func globalApproach(approach string) (bool, error) {
	if approach != "global" && approach != "local" {
		return false, fmt.Errorf("unknown approach %q", approach)
	}
	return approach == "global", nil
}

// specTitle labels an export of an inline-configured run.
func specTitle(s *rtlock.Spec) string {
	switch {
	case s.Single == nil:
		return "distributed"
	case s.Single.Protocol == "":
		return "single"
	}
	return "single/" + string(s.Single.Protocol)
}

// runKnobs points at the settings the command line overrides in the run
// config a spec selects; both configs declare them alike.
type runKnobs struct {
	audit, journal, metrics           *bool
	metricsInterval, timelineWindow   *rtlock.Duration
	timelineMaxWindows, maxRawRecords *int
	workload                          *rtlock.WorkloadConfig
}

func knobs(s *rtlock.Spec) runKnobs {
	if c := s.Single; c != nil {
		return runKnobs{&c.Audit, &c.Journal, &c.Metrics, &c.MetricsInterval, &c.TimelineWindow,
			&c.TimelineMaxWindows, &c.MaxRawRecords, &c.Workload}
	}
	c := s.Distributed
	return runKnobs{&c.Audit, &c.Journal, &c.Metrics, &c.MetricsInterval, &c.TimelineWindow,
		&c.TimelineMaxWindows, &c.MaxRawRecords, &c.Workload}
}

// exitCode maps a run error to the process exit code.
func exitCode(err error) int {
	var ue *usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	default:
		return 1
	}
}

// parseFlags parses uniformly for every subcommand: -h/-help surfaces
// flag.ErrHelp (exit 0), unknown flags become usage errors (exit 2),
// and stray positional arguments are rejected with the usage text. It
// also adds -cpuprofile and -memprofile to every command and starts the
// profiles they ask for; run writes them when the command returns.
func parseFlags(fs *flag.FlagSet, args []string) error {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the command to this file (read it with go tool pprof)")
	mem := fs.String("memprofile", "", "write an allocation profile to this file when the command ends")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return &usageError{err}
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return usagef("unexpected argument %q", fs.Arg(0))
	}
	return startProfiles(*cpu, *mem)
}

// profiles is what the command's -cpuprofile and -memprofile asked for.
var profiles struct {
	cpu *os.File // open while the CPU profile runs
	mem string   // allocation profile path, written at stop
}

func startProfiles(cpu, mem string) error {
	profiles.mem = mem
	if cpu == "" {
		return nil
	}
	f, err := os.Create(cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	profiles.cpu = f
	return nil
}

// stopProfiles flushes the CPU profile and writes the allocation
// profile (the one `go test -memprofile` writes), then forgets both.
func stopProfiles() error {
	var errs []error
	if f := profiles.cpu; f != nil {
		pprof.StopCPUProfile()
		errs = append(errs, f.Close())
	}
	if path := profiles.mem; path != "" {
		errs = append(errs, writeAllocsProfile(path))
	}
	profiles.cpu, profiles.mem = nil, ""
	return errors.Join(errs...)
}

func writeAllocsProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // bring the profile up to date with the finished command
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}

// subcommands is the dispatch table; run rejects anything else that
// does not look like a flag.
var subcommands = map[string]func([]string) error{
	"audit":     runAudit,
	"replay":    runReplay,
	"faults":    runFaults,
	"metrics":   runMetrics,
	"explore":   runExplore,
	"timeline":  runTimeline,
	"sitesweep": runSiteSweep,
}

func subcommandNames() []string {
	return []string{"audit", "replay", "faults", "metrics", "explore", "timeline", "sitesweep"}
}

func run(args []string) (err error) {
	defer func() {
		if perr := stopProfiles(); perr != nil {
			err = errors.Join(err, perr)
		}
	}()
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, ok := subcommands[args[0]]
		if !ok {
			return usagef("unknown subcommand %q (want one of %s, or flags; see -h)",
				args[0], strings.Join(subcommandNames(), ", "))
		}
		return sub(args[1:])
	}
	fs := flag.NewFlagSet("rtdbsim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "which experiment: "+strings.Join(experimentNames(), ", "))
		runs       = fs.Int("runs", 0, "override runs per point (0 keeps the default)")
		count      = fs.Int("count", 0, "override transactions per run (0 keeps the default)")
		seed       = fs.Int64("seed", 1, "base random seed")
		csv        = fs.Bool("csv", false, "also print CSV after each table")
		plot       = fs.Bool("plot", false, "also print an ASCII plot of each figure")
		outDir     = fs.String("out", "", "also write <name>.txt and <name>.csv per figure into this directory")
		protocol   = registerProtocol(fs, "custom, longrun:")
		size       = fs.Int("size", 10, "custom: mean transaction size")
		spec       = fs.String("spec", "", "run a JSON specification file instead of a named experiment")
		placeFlag  = fs.String("placement", "", "with -spec (distributed): override the data placement policy full|shard|quorum|primary")
		trace      = fs.Int("trace", 0, "with -spec (single): print up to N transaction-level journal records")
		auditRuns  = fs.Bool("audit", false, "check every run with its invariant auditors and fail on violations")
		metricsDir = fs.String("metrics", "", "with -spec: sample virtual-time metrics and export the bundle into this directory")
		tlDir      = fs.String("timeline", "", "with -spec: roll windowed telemetry and export timeline.jsonl/csv + report into this directory")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *spec != "" {
		s, err := rtlock.LoadSpec(*spec)
		if err != nil {
			return err
		}
		if *trace > 0 {
			if s.Single == nil {
				return usagef("-trace requires a single spec, got a distributed one")
			}
			s.Single.TraceEvents = *trace
		}
		if *placeFlag != "" {
			if s.Distributed == nil {
				return usagef("-placement %q requires a distributed spec, got a single one", *placeFlag)
			}
			s.Distributed.Placement = *placeFlag
		}
		k := knobs(s)
		*k.audit = *k.audit || *auditRuns
		if *tlDir != "" && *k.timelineWindow <= 0 {
			*k.timelineWindow = 1000 * rtlock.Millisecond
		}
		res, err := runWithMetrics(s, *metricsDir, filepath.Base(*spec))
		if err != nil {
			return err
		}
		if *tlDir != "" {
			b, err := timelineBundle(res, filepath.Base(*spec))
			if err != nil {
				return err
			}
			if err := b.write(*tlDir); err != nil {
				return err
			}
		}
		fmt.Println(res.Summary)
		if res.Serializable != nil {
			fmt.Printf("serializable=%t\n", *res.Serializable)
		}
		if err := reportViolations(res.Violations, len(res.Violations)); err != nil {
			return err
		}
		if res.Net != nil {
			fmt.Printf("net: %s\n", res.Net)
		}
		if res.Replication != nil {
			fmt.Printf("replication: %+v\n", *res.Replication)
		}
		if res.Trace != nil {
			fmt.Print(res.Trace.String())
		}
		return nil
	}

	want := strings.ToLower(*experiment)
	if !slices.Contains(experimentNames(), want) {
		return usagef("unknown experiment %q (want one of %s)", *experiment, strings.Join(experimentNames(), ", "))
	}
	p := experiments.DefaultParams()
	override := func(baseSeed *int64, nRuns, nCount *int, audit *bool) {
		*baseSeed, *audit = *seed, *auditRuns
		if *runs > 0 {
			*nRuns = *runs
		}
		if *count > 0 {
			*nCount = *count
		}
	}
	override(&p.Single.BaseSeed, &p.Single.Runs, &p.Single.Count, &p.Single.Audit)
	override(&p.Dist.BaseSeed, &p.Dist.Runs, &p.Dist.Count, &p.Dist.Audit)
	override(&p.SiteSweep.BaseSeed, &p.SiteSweep.Runs, &p.SiteSweep.Count, &p.SiteSweep.Audit)
	override(&p.Faults.BaseSeed, &p.Faults.Runs, &p.Faults.Count, &p.Faults.Audit)
	names := []string{want}
	switch want {
	case "custom":
		sum, err := experiments.RunCustom(p.Single, experiments.Protocol(*protocol), *size)
		if err != nil {
			return err
		}
		fmt.Printf("protocol=%s size=%d %s\n", *protocol, *size, sum)
		return nil
	case "longrun":
		res, err := experiments.LongRun(experiments.LongRunParams{
			Protocol: experiments.Protocol(*protocol),
			Seed:     *seed,
			Count:    *count,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Summary)
		fmt.Printf("timeline: %d windows (%d evicted), raw records retained/dropped %d/%d\n",
			len(res.Timeline), res.TimelineDropped, res.RawRetained, res.RawDropped)
		if *csv {
			fmt.Print(string(rtlock.TimelineCSV(res.Timeline)))
		}
		return nil
	case "all":
		names = experiments.Names(experiments.InAll)
	}
	// One sweep for the whole request: figures that plot the same cells
	// (fig2/fig3, fig4/5/6) run them once.
	sw := experiments.NewSweep(p)
	for _, name := range names {
		f, err := sw.Figure(name)
		if err != nil {
			return err
		}
		fmt.Println(f.String())
		if *plot {
			fmt.Println(f.Plot())
		}
		if *csv {
			fmt.Println(f.CSV())
		}
		if *outDir != "" {
			if err := writeFigure(*outDir, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// experimentNames is every value -experiment accepts: the figure table's
// rows, the two modes that print no figure, and "all".
func experimentNames() []string {
	return append(experiments.Names(experiments.ByName), "longrun", "custom", "all")
}

// writeFigure persists one figure as <dir>/<name>.txt and .csv.
func writeFigure(dir string, f experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	txt := filepath.Join(dir, f.Name+".txt")
	if err := os.WriteFile(txt, []byte(f.String()+"\n"+f.Plot()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", txt, err)
	}
	csvPath := filepath.Join(dir, f.Name+".csv")
	if err := os.WriteFile(csvPath, []byte(f.CSV()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", csvPath, err)
	}
	return nil
}
