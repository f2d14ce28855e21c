// Command bench is the repo's benchmark: the layered host-time ledger.
// It measures the host cost of the simulator end to end through the
// rtlock facade and layer by layer from outside; simulated results are a
// correctness check, not a score. See README.md.
//
//	go run ./bench -workload single-plain -seed 1 -seconds 10 -trace 0
//	go run ./bench                         # every workload, both passes
//	go run ./bench -sets 2                 # twice, with the spread between
//	go run ./bench -compare old.json new.json
//	go run ./bench -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "the only input to generation")
	seconds := fs.Float64("seconds", 10, "how long a run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced rep and unit-cost probes, per-layer metrics")
	scale := fs.Float64("scale", 1, "common factor on every workload's counts")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for trace, detail and suite files")
	sets := fs.Int("sets", 1, "run the whole suite this many times and report the spread between sets")
	compare := fs.Bool("compare", false, "compare two suite files: -compare old.json new.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric catalog defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Load comes from one process with at most two threads of Go code.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *printManifest:
		_, err = stdout.Write(manifest())
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two suite files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case *name != "":
		err = runOne(stdout, *name, *seed, *seconds, *scale, *trace, *out)
	default:
		err = runSuites(stdout, stderr, *sets, *seed, *seconds, *scale, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func detailPath(out, workload string, trace int) string {
	return filepath.Join(out, fmt.Sprintf("result-%s-trace%d.json", workload, trace))
}

// runOne runs one workload in this process, prints its lines and ends
// with the one-line JSON result. Auditor findings and counterexamples are
// listed and the exit code stays zero; only a run that cannot be measured
// is an error.
func runOne(stdout io.Writer, name string, seed int64, seconds, scale float64, trace int, out string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res *result
	var err error
	defs := endToEnd
	if trace == 0 {
		res, err = runEndToEnd(w, seed, seconds, scale)
	} else {
		defs = perLayer
		res, err = runLayers(w, seed, seconds, scale, out)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	detail, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := writeFile(detailPath(out, name, trace), detail); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload %s seed=%d gomaxprocs=%d trace=%d\n", name, seed, res.GOMAXPROCS, trace)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		s := res.Metrics[d.Name]
		line.Metrics[d.Name] = value{s.Value, s.Unit}
		fmt.Fprintf(stdout, "%-34s %14.4f %-5s (min %.4f max %.4f n=%d)\n", d.Name, s.Value, s.Unit, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(stdout, "fingerprint.%s %s\n", name, res.Fingerprint)
	fmt.Fprintf(stdout, "failed_share.%s %g (%d failures + %d auditor findings of %d ops)\n",
		name, res.FailedShare, res.Failed, len(res.Findings), res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "failure.%s %s\n", name, f)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(stdout, "finding.%s %s\n", name, f)
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return nil
}

// suite is every workload's two passes, keyed by workload.
type suite struct {
	Seed     int64              `json:"seed"`
	EndToEnd map[string]*result `json:"end_to_end"`
	Layers   map[string]*result `json:"per_layer"`
}

// runSuite runs each workload in a fresh process of this binary, one
// after another: the untraced pass, then the traced one.
func runSuite(stdout, stderr io.Writer, seed int64, seconds, scale float64, out string) (*suite, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &suite{Seed: seed, EndToEnd: map[string]*result{}, Layers: map[string]*result{}}
	for _, w := range workloads {
		for trace, into := range []map[string]*result{s.EndToEnd, s.Layers} {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(trace), "-out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
			}
			data, err := os.ReadFile(detailPath(out, w.name, trace))
			if err != nil {
				return nil, err
			}
			res := &result{}
			if err := json.Unmarshal(data, res); err != nil {
				return nil, fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
			}
			into[w.name] = res
		}
	}
	return s, nil
}

// runSuites runs the suite sets times back to back, writes each set to
// suite-<n>.json, and with two or more sets compares the last against the
// first: the between-set relative difference of every end-to-end metric,
// row by row against its bound and whole into observed_spread.json.
func runSuites(stdout, stderr io.Writer, sets int, seed int64, seconds, scale float64, out string) error {
	var all []*suite
	for n := 1; n <= sets; n++ {
		s, err := runSuite(stdout, stderr, seed, seconds, scale, out)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("suite-%d.json", n))
		if err := writeFile(path, data); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		all = append(all, s)
	}
	if sets < 2 {
		return nil
	}
	fmt.Fprintf(stdout, "\nobserved_spread: set %d against set 1\n", sets)
	_, spread := compareSuites(stdout, all[0], all[sets-1])
	data, err := json.MarshalIndent(spread, "", " ")
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(out, "observed_spread.json"), data)
}

func loadSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suite{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func compareFiles(stdout io.Writer, oldPath, newPath string) (worse bool, err error) {
	a, err := loadSuite(oldPath)
	if err != nil {
		return false, err
	}
	b, err := loadSuite(newPath)
	if err != nil {
		return false, err
	}
	worse, _ = compareSuites(stdout, a, b)
	return worse, nil
}

// compareSuites prints one row per workload and end-to-end metric and
// reports whether any is worse than its bound allows, with every relative
// change keyed "metric@workload". A difference inside the bound reads
// unresolved, not same, when the min-max spread of either side's reps is
// wider than the bound.
func compareSuites(stdout io.Writer, a, b *suite) (worse bool, change map[string]float64) {
	change = map[string]float64{}
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a.EndToEnd[w.name], b.EndToEnd[w.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(stdout, "%-16s missing from one side\n", w.name)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			v, rel := verdict(d, sa, sb), (sb.Value-sa.Value)/sa.Value
			worse = worse || v == "worse"
			change[d.Name+"@"+w.name] = rel
			fmt.Fprintf(stdout, "%-16s %-20s %14.4f %14.4f %+7.2f%% %5.1f%%  %s\n",
				w.name, d.Name, sa.Value, sb.Value, 100*rel, 100*d.Bound, v)
		}
		if ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(stdout, "%-16s fingerprint differs:\n  old %s\n  new %s\n", w.name, ra.Fingerprint, rb.Fingerprint)
		}
		if ra.Failed < rb.Failed {
			worse = true
			fmt.Fprintf(stdout, "%-16s failed rose %d -> %d: %s\n", w.name, ra.Failed, rb.Failed, strings.Join(rb.Failures, "; "))
		}
	}
	return worse, change
}

func verdict(d metricDef, old, new stat) string {
	// gain is the relative change in the metric's good direction.
	gain := (new.Value - old.Value) / old.Value
	if d.Better == "lower" {
		gain = -gain
	}
	noisy := func(s stat) bool { return s.N > 1 && (s.Max-s.Min)/s.Value > d.Bound }
	switch {
	case gain < -d.Bound:
		return "worse"
	case gain > d.Bound:
		return "better"
	case noisy(old) || noisy(new):
		return "unresolved"
	default:
		return "same"
	}
}
