package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureLoader builds a loader rooted at the repository so fixture
// packages (which import only the standard library) can be type-checked
// with the production code path.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// want is one expectation parsed from a `// want "regex"` comment.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseWants extracts the expectations from a fixture package.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var out []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Accept both `// want "..."` and `/* want "..." */`; the
				// block form lets an expectation share a line with a
				// //-directive under test.
				text := c.Text
				switch {
				case strings.HasPrefix(text, "//"):
					text = strings.TrimSpace(text[2:])
				case strings.HasPrefix(text, "/*"):
					text = strings.TrimSpace(strings.TrimSuffix(text[2:], "*/"))
				}
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitQuoted(t, pos, rest) {
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}

// splitQuoted parses a sequence of Go-quoted strings.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s: want expectations must be double-quoted strings, got %q", pos, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want string %q", pos, s)
		}
		lit, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want string %q: %v", pos, s[:end+1], err)
		}
		out = append(out, lit)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}

// checkFixture loads testdata/src/<name>, runs the analyzers through the
// full Analyze pipeline (including suppression and the directive
// meta-analyzer), and compares against the // want comments.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer, cfg Config) {
	t.Helper()
	l := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags, err := Analyze(pkg, analyzers, cfg)
	if err != nil {
		t.Fatalf("analyzing fixture %s: %v", name, err)
	}
	wants := parseWants(t, pkg.Fset, pkg.Files)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.Position.Filename && w.line == d.Position.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

func TestMapRangeFixture(t *testing.T) {
	checkFixture(t, "maprange", []*Analyzer{MapRange}, DefaultConfig())
}

func TestWallClockFixture(t *testing.T) {
	checkFixture(t, "wallclock", []*Analyzer{WallClock}, DefaultConfig())
}

func TestGlobalRandFixture(t *testing.T) {
	checkFixture(t, "globalrand", []*Analyzer{GlobalRand}, DefaultConfig())
}

func TestRawGoFixture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GoSpawnAllowlist = append(cfg.GoSpawnAllowlist, "rawgo/spawn_allowed.go")
	checkFixture(t, "rawgo", []*Analyzer{RawGo}, cfg)
}

// TestRawGoWorkloadAllowlist checks that the shipped allowlist admits the
// stream's chunk-ahead file and nothing else in internal/workload.
func TestRawGoWorkloadAllowlist(t *testing.T) {
	checkFixture(t, "rawgoworkload/internal/workload", []*Analyzer{RawGo}, DefaultConfig())
}

func TestSelectOrderFixture(t *testing.T) {
	checkFixture(t, "selectorder", []*Analyzer{SelectOrder}, DefaultConfig())
}

func TestFloatRangeFixture(t *testing.T) {
	checkFixture(t, "floatrange", []*Analyzer{FloatRange}, DefaultConfig())
}

func TestDirectiveFixture(t *testing.T) {
	checkFixture(t, "directive", Analyzers(), DefaultConfig())
}

// TestAnalyzersHaveDocs keeps the -list output and DESIGN.md honest.
func TestAnalyzersHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if !validAnalyzerName(a.Name) {
			t.Errorf("analyzer name %q not directive-addressable", a.Name)
		}
	}
	if seen[MetaAnalyzerName] {
		t.Errorf("meta-analyzer name %q collides with a real analyzer", MetaAnalyzerName)
	}
}
