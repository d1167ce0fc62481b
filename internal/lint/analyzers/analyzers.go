// Package analyzers holds the gpowerlint domain analyzers: mechanical
// enforcement of the repository's determinism, cancellation,
// numerical-hygiene, unit-provenance and pooled-spawn invariants
// (DESIGN.md §9).
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"gpupower/internal/lint"
)

// All returns every registered analyzer, in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		MapOrder,
		FloatEq,
		CtxFlow,
		GoNoSync,
		UnitFlow,
		UnusedIgnore,
	}
}

// KnownNames returns the full registry name set — the directive vocabulary
// the Runner should accept even when only a subset of analyzers runs.
func KnownNames() map[string]bool {
	out := make(map[string]bool)
	for _, a := range All() {
		out[a.Name] = true
	}
	return out
}

// ByName resolves a comma-separated analyzer list ("maporder,floateq").
func ByName(names string) ([]*lint.Analyzer, bool) {
	var out []*lint.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// --- shared type-query helpers ---

// isFloat reports whether the expression's type is a floating-point kind.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or nil
// for builtins, conversions and indirect calls through plain variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	obj, ok := info.Uses[id]
	if !ok {
		return nil
	}
	f, _ := obj.(*types.Func)
	return f
}

// calleeFullName returns the fully-qualified callee name ("fmt.Errorf",
// "(*strings.Builder).WriteString"), or "".
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	if f := calleeFunc(info, call); f != nil {
		return f.FullName()
	}
	return ""
}

// pathHasSuffix reports whether a package import path equals suffix or ends
// with "/"+suffix (so "gpupower/internal/linalg" and a fixture's
// "floateq/internal/linalg" both match "internal/linalg").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// identObj resolves an identifier expression to its object, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := info.Uses[id]; ok {
		return obj
	}
	return info.Defs[id]
}
