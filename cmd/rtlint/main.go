// Command rtlint runs the determinism static-analysis suite over the
// repository's simulation-critical packages.
//
// Usage:
//
//	go run ./cmd/rtlint [-json] [-list] [packages...]
//
// Patterns follow the usual Go shapes ("./...", "./internal/sim");
// packages outside the simulation-critical set are skipped, and a
// pattern that matches no package is a load error. The exit status is 0
// when no findings remain after //rtlint:allow suppressions, 1 when
// findings (or malformed/stale suppressions) exist, and 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rtlock/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rtlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array for CI annotation")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", lint.MetaAnalyzerName, "meta-analyzer: reports malformed, unknown, and stale //rtlint:allow suppressions")
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modRoot, err := findModRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlint:", err)
		return 2
	}
	diags, err := lint.Run(modRoot, patterns, lint.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlint:", err)
		return 2
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, modRoot, diags); err != nil {
			fmt.Fprintln(os.Stderr, "rtlint:", err)
			return 2
		}
	} else if err := lint.WriteText(os.Stdout, modRoot, diags); err != nil {
		fmt.Fprintln(os.Stderr, "rtlint:", err)
		return 2
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "rtlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// findModRoot walks up from the working directory to the enclosing
// go.mod.
func findModRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
