package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// MetaAnalyzerName tags diagnostics produced by the suppression
// meta-analyzer. Its findings are themselves not suppressible: a stale
// or malformed allow-directive must be deleted or repaired, never
// silenced.
const MetaAnalyzerName = "directive"

// Analyze runs the given analyzers over one package, applies
// //rtlint:allow suppressions, and appends the meta-analyzer's findings
// about the directives themselves. Diagnostics come back sorted by
// position.
func Analyze(pkg *Package, analyzers []*Analyzer, cfg Config) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Config:   cfg,
			report:   func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}

	known := KnownAnalyzers()
	var directives []*Directive
	var meta []Diagnostic
	for _, f := range pkg.Files {
		ds, malformed := fileDirectives(pkg.Fset, f)
		directives = append(directives, ds...)
		meta = append(meta, malformed...)
	}
	for _, d := range directives {
		if !known[d.Analyzer] {
			msg := fmt.Sprintf("suppression names unknown analyzer %q", d.Analyzer)
			if near := nearestAnalyzer(d.Analyzer, known); near != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", near)
			}
			meta = append(meta, Diagnostic{
				Analyzer: MetaAnalyzerName,
				Position: d.Position,
				Message:  msg,
			})
			d.used = true // don't double-report as stale
		}
	}

	// A directive suppresses diagnostics of its analyzer on its own
	// line (trailing comment) or the line directly below (comment line
	// above the code).
	var kept []Diagnostic
	for _, diag := range raw {
		suppressed := false
		for _, d := range directives {
			if d.Analyzer != diag.Analyzer || d.Position.Filename != diag.Position.Filename {
				continue
			}
			if d.Position.Line == diag.Position.Line || d.Position.Line == diag.Position.Line-1 {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}
	for _, d := range directives {
		if !d.used {
			meta = append(meta, Diagnostic{
				Analyzer: MetaAnalyzerName,
				Position: d.Position,
				Message:  fmt.Sprintf("stale suppression: %s reports nothing on this or the next line", d.Analyzer),
			})
		}
	}

	kept = append(kept, meta...)
	sortDiagnostics(kept)
	return kept, nil
}

// Run loads every pattern-matched package of the module, analyzes the
// simulation-critical ones, and returns all diagnostics sorted by
// position. Packages outside the sim-critical set are skipped: the
// determinism rules only bind code that runs inside (or aggregates
// results of) the simulation.
func Run(modRoot string, patterns []string, cfg Config) ([]Diagnostic, error) {
	loader, err := NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	critical := make(map[string]bool, len(SimCriticalPkgs))
	for _, suffix := range SimCriticalPkgs {
		critical[loader.ModPath+"/"+suffix] = true
	}
	analyzers := Analyzers()
	var all []Diagnostic
	for _, path := range paths {
		if !critical[path] {
			continue
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		diags, err := Analyze(pkg, analyzers, cfg)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sortDiagnostics(all)
	return all, nil
}

// nearestAnalyzer suggests the closest known analyzer name for a typo,
// within an edit distance of 2.
func nearestAnalyzer(name string, known map[string]bool) string {
	candidates := make([]string, 0, len(known)+1)
	for k := range known {
		candidates = append(candidates, k)
	}
	candidates = append(candidates, MetaAnalyzerName)
	sort.Strings(candidates)
	best, bestDist := "", 3
	for _, c := range candidates {
		if d := editDistance(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance, capped implicitly by the
// caller's threshold (the names involved are short).
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// WriteText prints diagnostics in the classic file:line:col form, with
// paths shown relative to base when possible.
func WriteText(w io.Writer, base string, ds []Diagnostic) error {
	for _, d := range ds {
		name := relPath(base, d.Position.Filename)
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n",
			name, d.Position.Line, d.Position.Column, d.Analyzer, d.Message); err != nil {
			return err
		}
	}
	return nil
}

// jsonDiagnostic is the CI annotation form of a finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON emits the diagnostics as a JSON array for CI annotation.
func WriteJSON(w io.Writer, base string, ds []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(ds))
	for _, d := range ds {
		out = append(out, jsonDiagnostic{
			File:     relPath(base, d.Position.Filename),
			Line:     d.Position.Line,
			Col:      d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func relPath(base, name string) string {
	if base == "" {
		return name
	}
	rel, err := filepath.Rel(base, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
