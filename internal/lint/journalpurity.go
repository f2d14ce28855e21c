package lint

import (
	"go/types"
	"strings"
)

// JournalPurity proves that journal-pure packages can never mutate the
// replay journal. PR 4's zero-perturbation guarantee — metrics
// aggregation must not feed back into the byte-identical journal — is
// pinned at runtime by TestMetricsZeroOverhead; this analyzer makes it a
// theorem about the code: starting from every function of a pure
// package (internal/metrics by default, plus any package whose package
// doc carries //rtlint:pure=journal), it follows statically resolvable
// calls through module source and reports any path that reaches a
// function writing journal.Journal state (Append, Reset, Tee, the
// encoders). Mutators are detected by their bodies — a field write on a
// journal.Journal value — not by name, so a new mutating method is
// covered the day it is written.
//
// The proof covers the static call graph: dynamic dispatch through
// interfaces and calls through stored function values are opaque (an
// interface method without a reachable body is assumed pure). The
// journal's hot path uses static callbacks precisely so this closure is
// meaningful.
var JournalPurity = &Analyzer{
	Name: "journalpurity",
	Doc:  "proves journal-pure packages (internal/metrics, //rtlint:pure=journal) never reach a journal-mutating function",
	Run:  runJournalPurity,
}

// DefaultJournalPurePkgs lists the import-path suffixes that are
// journal-pure by policy, annotation or not.
var DefaultJournalPurePkgs = []string{"internal/metrics"}

func runJournalPurity(pass *Pass) error {
	r := pass.Config.Resolve
	if r == nil {
		// Purity is a whole-module property; without a resolver there
		// is no dependency source to chase calls into.
		return nil
	}
	pure := pass.Markers.pureDomains["journal"]
	if !pure {
		for _, suffix := range pass.Config.JournalPurePkgs {
			if pass.Pkg.Path() == suffix || strings.HasSuffix(pass.Pkg.Path(), "/"+suffix) {
				pure = true
				break
			}
		}
	}
	if !pure {
		return nil
	}

	g := r.graphForPackage(&Package{
		Path:  pass.Pkg.Path(),
		Fset:  pass.Fset,
		Files: pass.Files,
		Types: pass.Pkg,
		Info:  pass.Info,
	})
	for _, fi := range g.funcs {
		if fi.mutatesJournal {
			// A pure package writing journal fields directly is only
			// possible if it IS the journal package; keep the check for
			// completeness.
			pass.Reportf(fi.decl.Name.Pos(), "journal-pure package mutates journal.Journal state in %s", fi.obj.Name())
		}
		for _, cs := range fi.calls {
			callee := cs.callee
			if callee.Pkg() == pass.Pkg {
				// Same-package callees are analyzed on their own; the
				// mutation (or the escaping call) is reported there.
				continue
			}
			reaches, chain := r.ReachesJournalMutation(callee)
			if !reaches {
				continue
			}
			pass.Reportf(cs.pos.Pos(),
				"journal-pure package calls %s, which %s journal.Journal state%s; journal purity is the zero-perturbation guarantee — read Records(), never mutate",
				calleeName(callee), mutationVerb(chain), chainString(callee, chain))
		}
	}
	return nil
}

func calleeName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "(" + recv.Type().String() + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func mutationVerb(chain []*types.Func) string {
	if len(chain) == 0 {
		return "mutates"
	}
	return "reaches a mutation of"
}

func chainString(first *types.Func, chain []*types.Func) string {
	if len(chain) == 0 {
		return ""
	}
	parts := []string{first.Name()}
	for _, fn := range chain {
		parts = append(parts, fn.Name())
	}
	return " (via " + strings.Join(parts, " -> ") + ")"
}
