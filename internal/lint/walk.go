package lint

import (
	"go/ast"
	"go/types"
)

// parentMap records each node's syntactic parent within one file, so
// analyzers can climb from a finding to its enclosing block.
type parentMap map[ast.Node]ast.Node

func buildParents(f *ast.File) parentMap {
	parents := make(parentMap)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingStmts returns the statement list containing stmt and stmt's
// index in it, climbing through the parent map to the nearest block or
// case body. ok is false at the top level of a function literal used as
// an expression, etc.
func enclosingStmts(parents parentMap, stmt ast.Stmt) (list []ast.Stmt, idx int, ok bool) {
	parent := parents[stmt]
	switch p := parent.(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	default:
		return nil, 0, false
	}
	for i, s := range list {
		if s == stmt {
			return list, i, true
		}
	}
	return nil, 0, false
}

// isMapRange reports whether rs ranges over a map-typed expression.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// declOrUseObj resolves an identifier whether it is being defined (:=)
// or used (=).
func declOrUseObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isIntegerType reports whether t's underlying type is an integer kind
// (order-insensitive under + and ^).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isFloatType reports whether t's underlying type is a float or complex
// kind, whose accumulation order changes results.
func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// exprString renders a short source-ish form of an expression for
// diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	default:
		return "expression"
	}
}
