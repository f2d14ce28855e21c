package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// RawGo forbids `go` statements in simulation packages outside the
// kernel's baton protocol. The kernel guarantees that at most one
// goroutine touches simulation state at a time: its worker goroutines,
// started at one site in internal/sim/proc.go, run only while they hold
// the baton and pass it with a channel send; a goroutine created
// anywhere else runs unsynchronized with virtual time and races the
// journal. Two other sites are allow-listed: the parallel experiment
// runner fans out whole independent kernels and joins them by run
// index, never sharing simulation state; the workload stream's
// chunk-ahead goroutine draws transactions, touches no kernel state, and
// passes the generator back with the chunk it sends.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbids go statements outside the kernel baton protocol, the allow-listed parallel sweep runner and the chunk-ahead load generator",
	Run:  runRawGo,
}

func runRawGo(pass *Pass) error {
	allowed := func(filename string) bool {
		slash := filepath.ToSlash(filename)
		for _, suffix := range pass.Config.GoSpawnAllowlist {
			if strings.HasSuffix(slash, suffix) {
				return true
			}
		}
		return false
	}
	for _, f := range pass.Files {
		if allowed(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Go, "go statement outside the kernel baton protocol; use Kernel.Spawn so only the baton holder runs simulation code")
			}
			return true
		})
	}
	return nil
}
