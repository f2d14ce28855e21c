// Package lint is a determinism-preserving static-analysis suite for the
// simulation. The prototyping environment is only useful because its
// executions are repeatable; the replay journal and the protocol
// auditors check that at runtime, but the two map-iteration shutdown
// bugs they caught were found only because a shuffled interleaving
// happened to trigger them. The whole bug class — unordered map ranges,
// wall-clock reads, unseeded global randomness, goroutines spawned
// outside the kernel baton protocol, racy selects, order-dependent float
// accumulation — is statically detectable, and the six analyzers here
// detect it at compile time, before a single test runs. Pool lifecycles,
// steady-state allocation and journal purity are not checked here: the
// runtime gates DESIGN.md lists under "Hot-path and purity gates" fail
// on them.
//
// The design mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone: go/parser,
// go/types, and go/importer. Findings can be suppressed with a
//
//	//rtlint:allow <analyzer> <reason>
//
// directive on the offending line or the line directly above it; a
// meta-analyzer flags malformed, unknown, and stale suppressions so the
// allow-list can never rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one determinism check. It mirrors the x/tools analysis
// API shape so the checks could migrate there if the repo ever takes on
// the dependency.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //rtlint:allow directives.
	Name string
	// Doc describes the bug class the analyzer prevents.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Config carries runner-level policy (e.g. the raw-go spawn-site
	// allowlist) that some analyzers consult.
	Config Config

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"-"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Config is runner-level policy shared by the analyzers.
type Config struct {
	// GoSpawnAllowlist lists file path suffixes (slash-separated) in
	// which `go` statements are legal. The defaults are the kernel's
	// worker start site and the parallel experiment runner.
	GoSpawnAllowlist []string
}

// DefaultGoSpawnAllowlist names the only files where a raw `go`
// statement is part of the deterministic machinery: the kernel's
// baton-passing worker start, the index-slotted batch pool the
// schedule explorer and the experiment sweeps share, and the workload
// stream's chunk-ahead generator, which runs no simulation code and
// hands its one piece of state back with each chunk.
var DefaultGoSpawnAllowlist = []string{
	"internal/sim/proc.go",
	"internal/explore/pool.go",
	"internal/workload/ahead.go",
}

// DefaultConfig returns the policy rtlint ships with.
func DefaultConfig() Config {
	return Config{GoSpawnAllowlist: DefaultGoSpawnAllowlist}
}

// Analyzers returns the full determinism suite, in stable order. The
// directive meta-analyzer is not in the list: it is part of the runner,
// because it must observe which suppressions the listed analyzers
// consumed.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRange,
		WallClock,
		GlobalRand,
		RawGo,
		SelectOrder,
		FloatRange,
	}
}

// KnownAnalyzers reports every name a directive may legally reference.
func KnownAnalyzers() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// SimCriticalPkgs lists the import-path suffixes (relative to the module
// root) whose code runs inside — or aggregates results of — the
// discrete-event simulation, where any nondeterminism reaches
// scheduling, journal emission, or reported numbers.
var SimCriticalPkgs = []string{
	"internal/sim",
	"internal/core",
	"internal/dist",
	"internal/netsim",
	"internal/place",
	"internal/faults",
	"internal/txn",
	"internal/journal",
	"internal/audit",
	"internal/experiments",
	"internal/metrics",
	"internal/explore",
	"internal/stats",
	"internal/timeline",
	"internal/workload",
}
