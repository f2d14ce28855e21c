package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the acceptance gate: running rtlint over the real
// repository must produce zero findings. Every remaining map range (or
// other hazard) in a sim-critical package needs a fix or a justified
// //rtlint:allow.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./..."}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

const seededViolations = `// Package sim holds one seeded violation per analyzer.
package sim

import (
	"math/rand"
	"time"
)

type Event struct{ ID int64 }

func Stamp() int64 {
	return time.Now().UnixNano()
}

func Jitter() float64 {
	return rand.Float64()
}

func Pump(in, out chan Event) Event {
	go func() { out <- <-in }()
	select {
	case e := <-in:
		return e
	case e := <-out:
		return e
	}
}

func Drain(pending map[int64]Event) []Event {
	var order []Event
	for _, e := range pending {
		order = append(order, e)
	}
	return order
}

func Load(weights map[int64]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return total
}
`

// TestSeededViolations builds a throwaway module seeded with one
// violation per analyzer and checks each fires with a positioned
// diagnostic — the "seeding a synthetic violation makes rtlint exit
// non-zero" acceptance criterion, minus the process boundary
// (cmd/rtlint exits 1 whenever Run returns findings).
func TestSeededViolations(t *testing.T) {
	root := t.TempDir()
	simDir := filepath.Join(root, "internal", "sim")
	if err := os.MkdirAll(simDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(simDir, "bad.go"), seededViolations)
	writeFile(t, filepath.Join(root, "go.mod"), "module rtlock\n\ngo 1.22\n")

	diags, err := Run(root, []string{"./..."}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	fired := map[string][]Diagnostic{}
	for _, d := range diags {
		fired[d.Analyzer] = append(fired[d.Analyzer], d)
		if d.Position.Filename == "" || d.Position.Line == 0 {
			t.Errorf("diagnostic without a position: %+v", d)
		}
		if filepath.Base(d.Position.Filename) != "bad.go" {
			t.Errorf("diagnostic attributed to the wrong file: %s", d)
		}
	}
	for _, a := range Analyzers() {
		if len(fired[a.Name]) == 0 {
			t.Errorf("seeded violation for %s not detected", a.Name)
		}
	}
}

// TestSeededViolationOutsideSimPackagesIgnored checks scope: the same
// file in a package outside SimCriticalPkgs is not analyzed.
func TestSeededViolationOutsideSimPackagesIgnored(t *testing.T) {
	root := t.TempDir()
	toolDir := filepath.Join(root, "internal", "tools")
	if err := os.MkdirAll(toolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, "go.mod"), "module rtlock\n\ngo 1.22\n")
	writeFile(t, filepath.Join(toolDir, "bad.go"),
		strings.Replace(seededViolations, "package sim", "package tools", 1))

	diags, err := Run(root, []string{"./..."}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("non-sim-critical package was analyzed: %v", diags)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
