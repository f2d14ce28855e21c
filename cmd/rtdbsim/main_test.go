package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rtlock/internal/experiments"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentNamesFromTable pins the CLI to the figure table: -h lists
// every row (periodic, overhead and recovery were once missing from a
// hand-written list), and an unknown name is a usage error naming the
// choices.
func TestExperimentNamesFromTable(t *testing.T) {
	help := helpText(t)
	if names := experimentNames(); !slices.Contains(names, "periodic") || !slices.Contains(names, "recovery") {
		t.Fatalf("experiment names %v miss table rows", names)
	}
	unknown := run([]string{"-experiment", "nope"})
	if exitCode(unknown) != 2 {
		t.Fatalf("unknown experiment: exit %d (%v), want 2", exitCode(unknown), unknown)
	}
	for _, name := range experimentNames() {
		if !strings.Contains(help, name) {
			t.Errorf("-h does not list %q", name)
		}
		if !strings.Contains(unknown.Error(), name) {
			t.Errorf("unknown-experiment error does not name %q: %v", name, unknown)
		}
	}
}

// helpText returns what `rtdbsim <args> -h` prints (to stderr; small
// enough for the pipe's buffer).
func helpText(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	helpErr := run(slices.Concat(args, []string{"-h"}))
	os.Stderr = stderr
	w.Close()
	help, _ := io.ReadAll(r)
	if exitCode(helpErr) != 0 {
		t.Fatalf("%v -h: %v", args, helpErr)
	}
	return string(help)
}

// TestProtocolLettersFromTable pins every -protocol flag to the protocol
// table: its help line lists every row's letter (the hand-typed lists
// once had to be edited per protocol), and an unknown letter is a usage
// error naming the choices.
func TestProtocolLettersFromTable(t *testing.T) {
	for _, sub := range [][]string{nil, {"audit"}, {"replay"}, {"metrics"}, {"timeline"}, {"explore"}} {
		// The flag package prints "  -protocol value" and the usage
		// text on the line after it.
		_, usage, ok := strings.Cut(helpText(t, sub...), "  -protocol ")
		if !ok {
			t.Fatalf("rtdbsim %v -h has no -protocol flag", sub)
		}
		usage = strings.SplitN(usage, "\n", 3)[1]
		unknown := run(slices.Concat(sub, []string{"-protocol", "ZZ"}))
		if exitCode(unknown) != 2 {
			t.Fatalf("rtdbsim %v -protocol ZZ: exit %d (%v), want 2", sub, exitCode(unknown), unknown)
		}
		for _, letter := range experiments.AllProtocols() {
			if !slices.Contains(strings.FieldsFunc(usage, func(r rune) bool { return r == '|' || r == ' ' }), string(letter)) {
				t.Errorf("rtdbsim %v -h: -protocol help %q does not list %s", sub, usage, letter)
			}
			if !strings.Contains(unknown.Error(), string(letter)) {
				t.Errorf("rtdbsim %v: unknown-protocol error does not name %s: %v", sub, letter, unknown)
			}
		}
	}
}

// TestMetricsSpecReportsItsOwnError: `metrics -spec` takes a run spec or
// a fault plan, and a broken file is reported by the parser of the kind
// it is — a run spec's unknown protocol used to surface as the fault-plan
// parser's complaint about the "mode" field.
func TestMetricsSpecReportsItsOwnError(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, body, want string }{
		{"spec.json", `{"mode":"single","protocol":"ZZ","workload":{"count":20}}`, `unknown protocol "ZZ"`},
		{"plan.json", `{"crashes":[{"site":1,"bogus":true}]}`, "parse plan"},
		{"torn.json", `{"mode":`, "unexpected end of JSON"},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"metrics", "-spec", path, "-out", filepath.Join(dir, "out")})
		if exitCode(err) != 1 || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("metrics -spec %s: %v, want a runtime error naming the file and %q", tc.name, err, tc.want)
		}
	}
}

// TestResultsFiguresCurrent regenerates `-experiment all` at the defaults
// and compares results/figures byte for byte, so the committed figures
// cannot drift from the code (CI runs the same comparison with git diff).
func TestResultsFiguresCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size reproduction: skipped in -short")
	}
	dir := t.TempDir()
	if err := run([]string{"-experiment", "all", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	committed := filepath.Join("..", "..", "results", "figures")
	entries, err := os.ReadDir(committed)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, _ := os.ReadDir(dir); len(fresh) != len(entries) {
		t.Errorf("regenerated %d files, results/figures holds %d", len(fresh), len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(committed, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("results/figures/%s is stale: regenerate with rtdbsim -experiment all -out results/figures", e.Name())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCustomTiny(t *testing.T) {
	if err := run([]string{"-experiment", "custom", "-protocol", "C", "-size", "4", "-runs", "1", "-count", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomBadProtocol(t *testing.T) {
	if err := run([]string{"-experiment", "custom", "-protocol", "ZZ", "-runs", "1", "-count", "30"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

func TestRunFigTiny(t *testing.T) {
	// A tiny fig2 run exercises the sweep plumbing end to end.
	if err := run([]string{"-experiment", "fig2", "-runs", "1", "-count", "25", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesOutputFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "fig3", "-runs", "1", "-count", "25", "-out", dir, "-plot"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig3.txt", "fig3.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

func TestRunSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	spec := `{"mode":"single","protocol":"C","memoryResident":true,"workload":{"seed":1,"count":20,"meanSize":3}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-trace", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing spec accepted")
	}
}

// TestExitCodes pins the subcommand UX contract: help exits 0, usage
// mistakes (unknown subcommand/flag/experiment, stray positionals) exit
// 2, runtime failures exit 1 — uniformly across subcommands.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"help", []string{"-h"}, 0},
		{"explore help", []string{"explore", "-h"}, 0},
		{"audit help", []string{"audit", "-h"}, 0},
		{"unknown subcommand", []string{"bogus"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"unknown experiment", []string{"-experiment", "nope"}, 2},
		{"stray positional", []string{"-experiment", "custom", "stray"}, 2},
		{"explore unknown flag", []string{"explore", "-bogus"}, 2},
		{"explore stray positional", []string{"explore", "stray"}, 2},
		{"explore bad strategy", []string{"explore", "-strategy", "bfs"}, 2},
		{"faults unknown flag", []string{"faults", "-bogus"}, 2},
		{"metrics stray positional", []string{"metrics", "stray"}, 2},
		{"replay unknown flag", []string{"replay", "-bogus"}, 2},
		{"custom unknown protocol", []string{"-experiment", "custom", "-protocol", "ZZ", "-runs", "1", "-count", "20"}, 2},
		{"explore unknown protocol", []string{"explore", "-protocol", "ZZ"}, 2},
		{"trace with distributed spec", []string{"-spec", "../../examples/specs/distributed-local.json", "-trace", "5"}, 2},
		{"placement with single spec", []string{"-spec", "../../examples/specs/single-ceiling.json", "-placement", "shard"}, 2},
		{"audit protocol with distributed", []string{"audit", "-distributed", "-protocol", "HP"}, 2},
		{"metrics protocol with global", []string{"metrics", "-global", "-protocol", "P", "-out", os.DevNull}, 2},
		{"replay one run", []string{"replay", "-runs", "1"}, 2},
		{"replay no runs", []string{"replay", "-runs", "0"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCode(run(tc.args)); got != tc.want {
				t.Fatalf("run(%v) exit code = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestRunExploreTiny runs a small clean-tree exploration through the
// subcommand and checks the verdict and artifact outputs.
func TestRunExploreTiny(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "verdict.jsonl")
	args := []string{"explore", "-schedules", "6", "-depth", "10", "-branch", "2", "-workers", "2", "-jsonl", jsonl}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("verdict file is empty")
	}
	// Byte-identical across runs and worker counts.
	jsonl2 := filepath.Join(dir, "verdict2.jsonl")
	args2 := []string{"explore", "-schedules", "6", "-depth", "10", "-branch", "2", "-workers", "4", "-jsonl", jsonl2}
	if err := run(args2); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(jsonl2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("verdict output differs across worker counts")
	}
}

// TestProfileFlags: every command takes -cpuprofile and -memprofile, and
// both profiles are written when the command returns — on failure too.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		exit int
	}{
		{"explore", []string{"explore", "-protocol", "HP", "-schedules", "20"}, 0},
		{"missing spec", []string{"-spec", filepath.Join(dir, "missing.json")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu := filepath.Join(dir, tc.name+".cpu")
			mem := filepath.Join(dir, tc.name+".mem")
			err := run(slices.Concat(tc.args, []string{"-cpuprofile", cpu, "-memprofile", mem}))
			if got := exitCode(err); got != tc.exit {
				t.Fatalf("exit %d (%v), want %d", got, err, tc.exit)
			}
			for _, path := range []string{cpu, mem} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// pprof writes gzip-compressed protocol buffers.
				if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
					t.Errorf("%s: %d bytes, not a gzip file", path, len(data))
				}
			}
		})
	}
}
