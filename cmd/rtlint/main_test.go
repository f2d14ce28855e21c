package main

import (
	"os"
	"path/filepath"
	"testing"
)

// seededModule writes a throwaway module whose one sim-critical package
// reads the wall clock, and returns its root.
func seededModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "sim")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		filepath.Join(root, "go.mod"): "module rtlock\n\ngo 1.22\n",
		filepath.Join(dir, "bad.go"): `package sim

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	} {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// chdir moves the test into dir until it ends; rtlint finds its module
// from the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExitCodes pins the command's contract: 0 clean, 1 findings, 2
// usage or load errors — a pattern that matches nothing included, so a
// typo cannot pass as a clean run.
func TestExitCodes(t *testing.T) {
	repo, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	seeded := seededModule(t)
	for _, tc := range []struct {
		name string
		dir  string
		args []string
		want int
	}{
		{"clean tree", repo, []string{"./..."}, 0},
		{"seeded finding", seeded, []string{"./..."}, 1},
		{"bad flag", repo, []string{"-bogus"}, 2},
		{"nonexistent pattern", repo, []string{"./nonexistent"}, 2},
		{"misspelt package", repo, []string{"./internal/simm"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chdir(t, tc.dir)
			if got := run(tc.args); got != tc.want {
				t.Errorf("rtlint %v in %s: exit %d, want %d", tc.args, tc.dir, got, tc.want)
			}
		})
	}
}
