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

// Slot is pooled, so reading it after recycling is a seeded
// use-after-release for poolsafety.
//
//rtlint:pooled
type Slot struct{ v int64 }

type slotPool struct{ freeSlots []*Slot }

func (p *slotPool) get() *Slot {
	if n := len(p.freeSlots); n > 0 {
		s := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		s.v = 0
		return s
	}
	return &Slot{}
}

func (p *slotPool) put(s *Slot) {
	s.v = 0
	p.freeSlots = append(p.freeSlots, s)
}

func UseAfterFree(p *slotPool) int64 {
	s := p.get()
	p.put(s)
	return s.v
}
`

// seededJournal is a minimal stand-in for the real journal package: a
// Journal type with a field-writing method, which is exactly what the
// journal-purity mutator detection keys on.
const seededJournal = `// Package journal is a stand-in with one mutating method.
package journal

type Journal struct{ n int }

func (j *Journal) Append(v int) { j.n += v }

func (j *Journal) Len() int { return j.n }
`

// seededMetrics violates journal purity: internal/metrics is pure by
// default policy, and it calls the journal's mutator.
const seededMetrics = `// Package metrics holds the seeded journal-purity violation.
package metrics

import "rtlock/internal/journal"

func Observe(j *journal.Journal) int {
	j.Append(1)
	return j.Len()
}
`

// TestSeededViolations builds a throwaway module seeded with one
// violation per analyzer and checks each fires with a positioned
// diagnostic — the "seeding a synthetic violation makes rtlint exit
// non-zero" acceptance criterion, minus the process boundary
// (cmd/rtlint exits 1 whenever Run returns findings). The only analyzer
// excused is allocfree, which needs compiler escape evidence and has its
// own seeded test below.
func TestSeededViolations(t *testing.T) {
	root := t.TempDir()
	for dir, content := range map[string]string{
		filepath.Join("internal", "sim"):     seededViolations,
		filepath.Join("internal", "journal"): seededJournal,
		filepath.Join("internal", "metrics"): seededMetrics,
	} {
		full := filepath.Join(root, dir)
		if err := os.MkdirAll(full, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(full, "bad.go"), content)
	}
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
		if a.Name == AllocFree.Name {
			continue
		}
		if len(fired[a.Name]) == 0 {
			t.Errorf("seeded violation for %s not detected", a.Name)
		}
	}
}

// seededEscape is a module whose annotated function provably allocates:
// returning &v forces v to the heap, which -m=2 reports inside the
// annotated body.
const seededEscape = `// Package sim holds one seeded allocfree violation.
package sim

// Box leaks its parameter to the heap on purpose.
//
//rtlint:allocfree
func Box(v int64) *int64 {
	return &v
}
`

// TestSeededAllocFreeViolation runs the real escape pipeline — a `go
// build -gcflags=-m=2` over a throwaway module — and checks the
// annotation catches the seeded escape.
func TestSeededAllocFreeViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	root := t.TempDir()
	simDir := filepath.Join(root, "internal", "sim")
	if err := os.MkdirAll(simDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, "go.mod"), "module rtlock\n\ngo 1.22\n")
	writeFile(t, filepath.Join(simDir, "bad.go"), seededEscape)

	rep, err := CollectEscapes(root, []string{"./..."})
	if err != nil {
		t.Fatalf("collecting escapes: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Escapes = rep
	diags, err := Run(root, []string{"./..."}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == AllocFree.Name && strings.Contains(d.Message, "Box") {
			found = true
		}
	}
	if !found {
		t.Errorf("seeded escape in annotated Box not detected; got %v", diags)
	}
}

// TestRepoIsCleanWithEscapes is the escape-backed acceptance gate: the
// full pipeline cmd/rtlint runs in CI — compiler escape evidence
// included — must stay finding-free over the real repository.
func TestRepoIsCleanWithEscapes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module with -m=2")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CollectEscapes(root, []string{"./..."})
	if err != nil {
		t.Fatalf("collecting escapes: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Escapes = rep
	diags, err := Run(root, []string{"./..."}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean under escape evidence: %s", d)
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
