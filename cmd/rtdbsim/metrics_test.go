package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stdoutOf runs the command with stdout sent to a file and returns what
// it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	if runErr != nil {
		t.Fatalf("%v: %v", args, runErr)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestTimelineMaxRawPrecedence: a spec's own maxRawRecords stays, and
// only a spec without one takes the 4096 default.
func TestTimelineMaxRawPrecedence(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "capped.json")
	body := `{"mode":"single","protocol":"C","timelineWindowMs":1000,"maxRawRecords":10,"workload":{"count":300}}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"spec cap stays", []string{"-spec", spec}, "\nraw records retained/dropped 10/290\n"},
		{"default without a spec cap", []string{"-count", "4200"}, "\nraw records retained/dropped 4096/104\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := stdoutOf(t, slices.Concat([]string{"metrics", "-out", out}, tc.args)...)
			if !strings.Contains(got, tc.want) {
				t.Errorf("metrics %v printed\n%s\nwant %q", tc.args, got, tc.want)
			}
		})
	}
}

// TestMetricsBundleFiles: `metrics -out d` writes the whole bundle and
// nothing else, the registry's series keyed by time and the window
// rows by window.
func TestMetricsBundleFiles(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	stdoutOf(t, "metrics", "-count", "60", "-out", out)
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"metrics.csv", "metrics.prom", "profile.folded", "report.html", "timeline.csv", "timeline.jsonl"}
	if !slices.Equal(names, want) {
		t.Fatalf("metrics -out wrote %v, want %v", names, want)
	}
	for name, prefix := range map[string]string{"metrics.csv": "time_us,", "timeline.csv": "window,start,"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), prefix) {
			t.Errorf("%s begins %.40q, want %q", name, data, prefix)
		}
	}
}

// TestMetricsWindowRule: a run has one window width — a positive
// -window, else the spec's timelineWindowMs, else its
// metricsIntervalMs, else 100ms — and `metrics -spec` agrees with the
// main path's `-spec … -metrics`.
func TestMetricsWindowRule(t *testing.T) {
	dir := t.TempDir()
	spec := func(name, keys string) string {
		path := filepath.Join(dir, name+".json")
		body := `{"mode":"single","protocol":"C",` + keys + `"workload":{"count":60}}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	interval := spec("interval", `"metricsIntervalMs":1000,`)
	both := spec("both", `"metricsIntervalMs":1000,"timelineWindowMs":2000,`)
	plain := spec("plain", "")
	// firstEnd is the end, in µs, of the first window row in dir.
	firstEnd := func(dir string) string {
		data, err := os.ReadFile(filepath.Join(dir, "timeline.csv"))
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(string(data), "\n")
		if len(rows) < 2 {
			t.Fatalf("%s/timeline.csv has no rows", dir)
		}
		return strings.Split(rows[1], ",")[2]
	}
	for _, tc := range []struct {
		name string
		args []string
		end  string
	}{
		{"spec interval", []string{"-spec", interval}, "1000000"},
		{"spec window over interval", []string{"-spec", both}, "2000000"},
		{"flag over spec", []string{"-spec", both, "-window", "500"}, "500000"},
		{"default", []string{"-spec", plain}, "100000"},
	} {
		out := filepath.Join(dir, tc.name)
		stdoutOf(t, slices.Concat([]string{"metrics", "-out", out}, tc.args)...)
		if got := firstEnd(out); got != tc.end {
			t.Errorf("metrics %v: first window ends at %sµs, want %s", tc.args, got, tc.end)
		}
	}
	main := filepath.Join(dir, "main")
	stdoutOf(t, "-spec", interval, "-metrics", main)
	for _, name := range []string{"timeline.csv", "metrics.csv"} {
		a, errA := os.ReadFile(filepath.Join(dir, "spec interval", name))
		b, errB := os.ReadFile(filepath.Join(main, name))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between metrics -spec and -spec … -metrics", name)
		}
	}
}
