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
// journal. The parallel experiment runner is the one other
// allow-listed site: it fans out whole independent kernels and joins
// them by run index, never sharing simulation state.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbids go statements outside the kernel baton protocol and the allow-listed parallel sweep runner",
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
