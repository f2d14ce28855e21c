// Command rtdbsim regenerates the paper's tables and figures, or runs a
// custom single configuration, printing aligned text tables and
// optionally CSV.
//
// Usage:
//
//	rtdbsim -experiment fig2            # any figure name -h lists, or all
//	rtdbsim -experiment fig3 -runs 3 -count 200 -csv
//	rtdbsim -experiment fig4,fig5,fig6  # one sweep: shared cells run once
//	rtdbsim -experiment custom -protocol C -size 12 -runs 5
//
// A figure runs on its family's built-in setting, or with -spec on the
// spec's run config: each cell then sets only what its row varies (its
// x axis, its series and the row's stated constants), and the run
// schedule stays the -runs, -count, -seed and -audit of the command
// line. The placement site sweep and the graceful-degradation sweep
// under generated fault plans are figures like the others:
//
//	rtdbsim -experiment fig2,fig3 -spec base.json
//	rtdbsim -experiment sites-throughput,sites-missed,consistency-tax -audit
//	rtdbsim -experiment sites-missed -spec examples/specs/sitesweep.json
//	rtdbsim -experiment faultsweep -audit
//
// Without -experiment, -spec runs the spec itself; a distributed spec's
// "faults" key runs it under deterministic fault injection (site
// crashes, message loss, partitions):
//
//	rtdbsim -spec examples/specs/distributed-faults.json -audit
//
// Two subcommands wrap the deterministic replay journal:
//
//	rtdbsim audit -protocol HP -count 200      # run + check protocol invariants
//	rtdbsim audit -spec run.json -chrome t.json
//	rtdbsim replay -protocol C -runs 3         # prove byte-identical journals
//	rtdbsim replay -spec run.json -against saved.jsonl
//
// A third rolls a run into virtual-time windows and exports the
// deterministic observability bundle (Prometheus exposition, the
// registry's CSV time series, the window rows as CSV and JSONL, folded
// blocking-chain stacks, HTML report):
//
//	rtdbsim metrics -protocol C -count 200 -out metrics-out
//	rtdbsim metrics -protocol C -count 40000 -window 1000 -runs 2
//	rtdbsim metrics -spec examples/specs/distributed-faults.json -runs 2
//
// The main -spec path and the audit/replay subcommands accept a
// -metrics directory to export the same bundle alongside their output.
// The bounded-memory million-transaction soak with arrival bursts is
// -experiment longrun.
//
// A fourth explores the schedule space: alternative scheduling decisions
// instead of the single canonical order, every explored schedule
// audited, violations shrunk to minimal decision traces:
//
//	rtdbsim explore -protocol C -schedules 64 -minimize
//	rtdbsim explore -all -jsonl verdict.jsonl -minout counterexamples
//
// Every command also takes -cpuprofile and -memprofile, written when it
// returns and read with go tool pprof, and -exectrace, an execution
// trace read with go tool trace:
//
//	rtdbsim explore -protocol HP -schedules 3600 -cpuprofile cpu.out -memprofile mem.out
//	rtdbsim -experiment longrun -count 20000 -exectrace trace.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
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

// ignored rejects the named flags that the command line set on fs: the
// mode, named by how, would silently drop them.
func ignored(fs *flag.FlagSet, how string, names ...string) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return usagef("%s does nothing %s", strings.Join(set, ", "), how)
	}
	return nil
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
	audit, journal, metrics *bool
	timelineWindow          *rtlock.Duration
	maxRawRecords           *int
}

func knobs(s *rtlock.Spec) runKnobs {
	if c := s.Single; c != nil {
		return runKnobs{&c.Audit, &c.Journal, &c.Metrics, &c.TimelineWindow, &c.MaxRawRecords}
	}
	c := s.Distributed
	return runKnobs{&c.Audit, &c.Journal, &c.Metrics, &c.TimelineWindow, &c.MaxRawRecords}
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
// also adds -cpuprofile, -memprofile and -exectrace to every command and
// starts the profiles they ask for; run writes them when the command
// returns.
func parseFlags(fs *flag.FlagSet, args []string) error {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the command to this file (read it with go tool pprof)")
	mem := fs.String("memprofile", "", "write an allocation profile to this file when the command ends")
	exec := fs.String("exectrace", "", "write an execution trace of the command to this file (read it with go tool trace)")
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
	return startProfiles(*cpu, *mem, *exec)
}

// profiles is what the command's -cpuprofile, -memprofile and
// -exectrace asked for.
var profiles struct {
	cpu  *os.File // open while the CPU profile runs
	mem  string   // allocation profile path, written at stop
	exec *os.File // open while the execution trace runs
}

func startProfiles(cpu, mem, exec string) error {
	profiles.mem = mem
	var err error
	if profiles.cpu, err = startProfile("cpuprofile", cpu, pprof.StartCPUProfile); err != nil {
		return err
	}
	profiles.exec, err = startProfile("exectrace", exec, trace.Start)
	return err
}

// startProfile creates path and starts writing the profile its flag
// names into it; an empty path starts nothing.
func startProfile(name, path string, start func(io.Writer) error) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return f, nil
}

// stopProfiles flushes the CPU profile and the execution trace and
// writes the allocation profile (the one `go test -memprofile` writes),
// then forgets all three.
func stopProfiles() error {
	var errs []error
	if f := profiles.cpu; f != nil {
		pprof.StopCPUProfile()
		errs = append(errs, f.Close())
	}
	if f := profiles.exec; f != nil {
		trace.Stop()
		errs = append(errs, f.Close())
	}
	if path := profiles.mem; path != "" {
		errs = append(errs, writeAllocsProfile(path))
	}
	profiles.cpu, profiles.mem, profiles.exec = nil, "", nil
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
	"audit":   runAudit,
	"replay":  runReplay,
	"metrics": runMetrics,
	"explore": runExplore,
}

func subcommandNames() []string {
	return []string{"audit", "replay", "metrics", "explore"}
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
		experiment = fs.String("experiment", "all", "which experiments, comma-separated: "+strings.Join(experimentNames(), ", "))
		runs       = fs.Int("runs", 0, "override runs per point (0 keeps the default)")
		count      = fs.Int("count", 0, "override transactions per run (0 keeps the default)")
		seed       = fs.Int64("seed", 1, "base random seed")
		csv        = fs.Bool("csv", false, "also print CSV after each table")
		plot       = fs.Bool("plot", false, "also print an ASCII plot of each figure")
		outDir     = fs.String("out", "", "also write <name>.txt and <name>.csv per figure into this directory")
		protocol   = registerProtocol(fs, "custom, longrun:")
		size       = fs.Int("size", 10, "custom: mean transaction size")
		spec       = fs.String("spec", "", "run a JSON specification file; with -experiment, run the named figures on its run config")
		trace      = fs.Int("trace", 0, "with -spec (single): print up to N transaction-level journal records")
		auditRuns  = fs.Bool("audit", false, "check every run with its invariant auditors and fail on violations")
		metricsDir = fs.String("metrics", "", "with -spec: sample virtual-time metrics and export the bundle into this directory")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	explicit := false
	fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "experiment" })
	if *spec != "" && !explicit {
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
		k := knobs(s)
		*k.audit = *k.audit || *auditRuns
		res, err := runWithMetrics(s, *metricsDir, filepath.Base(*spec))
		if err != nil {
			return err
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

	names := strings.Split(strings.ToLower(*experiment), ",")
	for _, name := range names {
		if !slices.Contains(experimentNames(), name) {
			return usagef("unknown experiment %q (want one of %s)", name, strings.Join(experimentNames(), ", "))
		}
	}
	want := names[0]
	mode := "with -experiment " + want
	for _, alone := range []string{"all", "custom", "longrun"} {
		switch {
		case len(names) > 1 && slices.Contains(names, alone):
			return usagef("-experiment %s runs alone, not in a list", alone)
		case *spec != "" && want == alone:
			return usagef("-spec does nothing %s: name the figures to run on it", mode)
		}
	}
	if err := ignored(fs, mode, "trace", "metrics"); err != nil {
		return err
	}
	p := experiments.DefaultParams()
	for _, s := range []*experiments.Schedule{&p.Single.Schedule, &p.Dist.Schedule, &p.SiteSweep.Schedule, &p.Faults.Schedule} {
		setSchedule(s, *seed, *auditRuns, *runs, *count)
	}
	if *spec != "" {
		s, err := rtlock.LoadSpec(*spec)
		if err != nil {
			return err
		}
		p.Base = *s
		if err := p.Check(names...); err != nil {
			return &usageError{fmt.Errorf("%s: %w", *spec, err)}
		}
	}
	switch want {
	case "custom":
		if err := ignored(fs, mode, "plot", "out", "csv"); err != nil {
			return err
		}
		sum, err := experiments.RunCustom(p.Single, experiments.Protocol(*protocol), *size)
		if err != nil {
			return err
		}
		fmt.Printf("protocol=%s size=%d %s\n", *protocol, *size, sum)
		return nil
	case "longrun":
		if err := ignored(fs, mode, "audit", "runs", "plot", "out"); err != nil {
			return err
		}
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
	// (fig2/fig3, fig4/5/6, the site sweep's three) run them once.
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

// setSchedule applies the command line to a figure family's run
// schedule; a zero runs or count keeps the family's default.
func setSchedule(s *experiments.Schedule, seed int64, audit bool, runs, count int) {
	s.BaseSeed, s.Audit = seed, audit
	if runs > 0 {
		s.Runs = runs
	}
	if count > 0 {
		s.Count = count
	}
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
