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

// TestTimelineMaxRawPrecedence: an explicit -maxraw wins (0 lifts every
// cap), a spec's own maxRawRecords stays otherwise, and only a spec
// without one takes the flag's 4096 default. The default used to
// overwrite the spec's cap, and -maxraw 0 could not lift it.
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
		{"spec cap stays", []string{"-spec", spec}, "retained/dropped 10/290"},
		{"explicit zero lifts the cap", []string{"-spec", spec, "-maxraw", "0"}, "retained/dropped 300/0"},
		{"explicit cap wins", []string{"-spec", spec, "-maxraw", "25"}, "retained/dropped 25/275"},
		{"default without a spec cap", []string{"-count", "4200"}, "retained/dropped 4096/104"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := stdoutOf(t, slices.Concat([]string{"timeline", "-out", out}, tc.args)...)
			if !strings.Contains(got, tc.want) {
				t.Errorf("timeline %v printed\n%s\nwant %q", tc.args, got, tc.want)
			}
		})
	}
}
