package lint

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// EscapeDiag is one heap-allocation diagnostic from the compiler's
// escape analysis (-gcflags=-m=2), positioned in module source.
type EscapeDiag struct {
	// File is the absolute path of the source file.
	File string
	Line int
	Col  int
	// Message is the compiler's diagnostic ("&Event{} escapes to heap",
	// "moved to heap: buf", ...).
	Message string
}

// EscapeReport indexes the compiler's escape diagnostics by file so the
// allocfree analyzer can map them onto annotated function bodies.
type EscapeReport struct {
	byFile map[string][]EscapeDiag
}

// NewEscapeReport builds a report from parsed diagnostics.
func NewEscapeReport(diags []EscapeDiag) *EscapeReport {
	r := &EscapeReport{byFile: make(map[string][]EscapeDiag)}
	for _, d := range diags {
		r.byFile[d.File] = append(r.byFile[d.File], d)
	}
	for _, ds := range r.byFile {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Line != ds[j].Line {
				return ds[i].Line < ds[j].Line
			}
			return ds[i].Col < ds[j].Col
		})
	}
	return r
}

// InFile returns the diagnostics of one file (by absolute path), sorted
// by position.
func (r *EscapeReport) InFile(file string) []EscapeDiag {
	if r == nil {
		return nil
	}
	return r.byFile[file]
}

// escapeLine matches one compiler diagnostic line: path:line:col: msg.
var escapeLine = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.+)$`)

// CollectEscapes runs the compiler's escape analysis over the module's
// packages and parses the heap-escape diagnostics. The go command
// re-emits diagnostics for every package matched by the -gcflags
// pattern on every invocation (such packages are rebuilt, never served
// stale from the build cache), so the output is complete even on a warm
// cache.
func CollectEscapes(modRoot string, patterns []string) (*EscapeReport, error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"build", "-gcflags=" + modPath + "/...=-m=2"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: escape analysis build failed: %v\n%s", err, out)
	}
	return NewEscapeReport(parseEscapeOutput(modRoot, string(out))), nil
}

// parseEscapeOutput extracts the heap-escape diagnostics from go build
// -gcflags=-m=2 output. -m=2 also prints inlining decisions and
// indented explanation ("flow:") lines; only top-level escape facts are
// kept, deduplicated (the compiler emits some twice, with and without a
// trailing colon introducing the explanation).
func parseEscapeOutput(modRoot, out string) []EscapeDiag {
	seen := make(map[string]bool)
	var diags []EscapeDiag
	for _, line := range strings.Split(out, "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			continue // indented explanation line
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		msg = strings.TrimSuffix(msg, ":")
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(modRoot, filepath.FromSlash(file))
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		key := fmt.Sprintf("%s:%d:%d:%s", file, lineNo, col, msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		diags = append(diags, EscapeDiag{File: file, Line: lineNo, Col: col, Message: msg})
	}
	return diags
}
