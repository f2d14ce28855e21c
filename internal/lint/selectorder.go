package lint

import (
	"go/ast"
)

// SelectOrder flags multi-case select statements in simulation
// packages. When more than one case is ready the runtime picks
// uniformly at random, so the chosen branch — and everything downstream
// of it — differs between runs. The kernel's baton passing
// needs only single-case sends and receives; anything that looks like
// it needs a racing select should be restructured as kernel events.
var SelectOrder = &Analyzer{
	Name: "selectorder",
	Doc:  "flags multi-case select statements, whose ready-case choice is randomized by the runtime",
	Run:  runSelectOrder,
}

func runSelectOrder(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			cases := len(sel.Body.List)
			if cases <= 1 {
				return true
			}
			hasDefault := false
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				pass.Reportf(sel.Select, "select with a default clause polls nondeterministically; restructure as kernel events")
			} else {
				pass.Reportf(sel.Select, "select with %d cases chooses a ready case at random; restructure as kernel events", cases)
			}
			return true
		})
	}
	return nil
}
