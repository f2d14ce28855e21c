package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //rtlint:allow comment.
type Directive struct {
	// Analyzer is the check being suppressed.
	Analyzer string
	// Reason is the mandatory free-text justification.
	Reason string
	// Position is where the directive comment starts.
	Position token.Position

	// used is set when a diagnostic was actually suppressed; unused
	// directives are reported as stale.
	used bool
}

// Directive parse errors, matched by tests.
var (
	ErrDirectiveVerb     = errors.New("unknown rtlint directive verb (supported: allow)")
	ErrDirectiveAnalyzer = errors.New("rtlint:allow needs an analyzer name")
	ErrDirectiveBadName  = errors.New("rtlint:allow analyzer name must be lowercase letters and digits")
	ErrDirectiveReason   = errors.New("rtlint:allow needs a reason after the analyzer name")
	ErrDirectiveSpace    = errors.New("rtlint directives must start exactly with //rtlint: (no space, no block comment)")
)

// ParseDirective parses one comment's text (including the // or /*
// marker, as go/ast stores it). It returns ok=false when the comment is
// not an rtlint directive at all, and a non-nil error when it tries to
// be one but is malformed — malformed directives are diagnostics, never
// silently ignored suppressions.
func ParseDirective(text string) (Directive, bool, error) {
	const prefix = "//rtlint:"
	if !strings.HasPrefix(text, prefix) {
		// Catch near-misses that a reader would believe are active:
		// "// rtlint:allow ..." or "/*rtlint:allow ...*/".
		trimmed := text
		trimmed = strings.TrimPrefix(trimmed, "//")
		trimmed = strings.TrimPrefix(trimmed, "/*")
		trimmed = strings.TrimSpace(strings.TrimSuffix(trimmed, "*/"))
		if strings.HasPrefix(trimmed, "rtlint:") {
			return Directive{}, true, ErrDirectiveSpace
		}
		return Directive{}, false, nil
	}
	rest := text[len(prefix):]
	verb := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb, rest = rest[:i], rest[i+1:]
	} else {
		rest = ""
	}
	if verb != "allow" {
		return Directive{}, true, fmt.Errorf("%w: %q", ErrDirectiveVerb, verb)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Directive{}, true, ErrDirectiveAnalyzer
	}
	name := fields[0]
	if !validAnalyzerName(name) {
		return Directive{}, true, fmt.Errorf("%w: %q", ErrDirectiveBadName, name)
	}
	reason := strings.TrimSpace(strings.Join(fields[1:], " "))
	if reason == "" {
		return Directive{Analyzer: name}, true, ErrDirectiveReason
	}
	return Directive{Analyzer: name, Reason: reason}, true, nil
}

func validAnalyzerName(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// fileDirectives extracts every directive (and every malformed attempt,
// as a diagnostic) from one file's comments.
func fileDirectives(fset *token.FileSet, f *ast.File) (ds []*Directive, malformed []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, isDirective, err := ParseDirective(c.Text)
			if !isDirective {
				continue
			}
			pos := fset.Position(c.Pos())
			if err != nil {
				malformed = append(malformed, Diagnostic{
					Analyzer: MetaAnalyzerName,
					Position: pos,
					Message:  "malformed suppression: " + err.Error(),
				})
				continue
			}
			d.Position = pos
			dd := d
			ds = append(ds, &dd)
		}
	}
	return ds, malformed
}
