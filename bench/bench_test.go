package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalog checks the metric catalog against the benchmark contract's
// limits and that BENCHMARK.json is the catalog's rendering.
func TestCatalog(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		t.Helper()
		if !nameRE.MatchString(s) {
			t.Errorf("name %q does not match %s", s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	largest := 0.0
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if d := endToEnd[len(endToEnd)-1]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better, with the largest bound: %+v", d)
	}
	for _, d := range perLayer {
		name(d.Name)
		for _, m := range d.Moves {
			metric, workload, ok := strings.Cut(m, "@")
			if !ok || !seen[metric] || !seen[workload] {
				t.Errorf("%s: moves %q names no end-to-end metric and workload", d.Name, m)
			}
		}
	}

	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
}

// TestEveryWorkloadAtSmallSize runs both passes of every workload, with
// every probe, at 1/100 size and checks that the result line carries
// exactly the catalog's names and that the two paths agree.
func TestEveryWorkloadAtSmallSize(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.05", "--scale", "0.01",
				"--trace", []string{"0", "1"}[trace], "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   *bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if res.Correct == nil || !*res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s missing or without value and unit %q: %+v", w.name, trace, d.Name, d.Unit, m)
				} else if trace == 0 && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.Name, *m.Value)
				}
			}
			if !strings.Contains(stdout.String(), "\nfingerprint."+w.name+" ") {
				t.Errorf("%s trace=%d: no fingerprint line", w.name, trace)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Name: "rep", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "part", Parent: 0, Start: 10, End: 90},
		{ID: 2, Name: "gen", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "run", Parent: 1, Start: 30, End: 85},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]int64{"rep": 20, "part": 5, "gen": 20, "run": 55} {
		if got := int64(self[name]); got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Better: "higher", Bound: 0.10}
	lower := metricDef{Better: "lower", Bound: 0.10}
	steady := func(v float64) stat { return stat{Value: v, Min: v * 0.99, Max: v * 1.01, N: 5} }
	noisy := func(v float64) stat { return stat{Value: v, Min: v * 0.9, Max: v * 1.1, N: 5} }
	for _, c := range []struct {
		d        metricDef
		old, new stat
		want     string
	}{
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(115), "better"},
		{higher, steady(100), steady(95), "same"},
		{higher, steady(100), noisy(95), "unresolved"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(85), "better"},
		{lower, noisy(100), steady(105), "unresolved"},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %g -> %g) = %s, want %s", c.d.Better, c.old.Value, c.new.Value, got, c.want)
		}
	}
}
