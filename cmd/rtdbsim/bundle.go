// Export bundles: the named files the metrics subcommand writes, with
// the byte-identity self-check it runs under -runs.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"rtlock"
)

// bundle is one run's rendered export: named files, in the order they
// are written.
type bundle []struct {
	name string
	data []byte
}

// diff names the first file whose bytes differ between two bundles,
// "" when none does.
func (b bundle) diff(other bundle) string {
	for i, f := range b {
		if !bytes.Equal(f.data, other[i].data) {
			return f.name
		}
	}
	return ""
}

// write persists the bundle into dir, creating it as needed.
func (b bundle) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	for _, f := range b {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(f.data))
	}
	return nil
}

// identicalRuns executes run the given number of times (at least once),
// renders each result, and fails unless every later bundle is
// byte-identical to the first — the proof that the export is as
// deterministic as the simulation. It returns the first run's bundle and
// result.
func identicalRuns(runs int, run func() (*rtlock.Result, error),
	render func(*rtlock.Result) (bundle, error)) (bundle, *rtlock.Result, error) {
	var first bundle
	var firstRes *rtlock.Result
	for r := 1; r <= max(runs, 1); r++ {
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		b, err := render(res)
		if err != nil {
			return nil, nil, err
		}
		if r == 1 {
			first, firstRes = b, res
		} else if name := first.diff(b); name != "" {
			return nil, nil, fmt.Errorf("metrics: %s diverged on run %d — nondeterminism", name, r)
		}
	}
	return first, firstRes, nil
}
