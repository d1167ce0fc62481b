package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"gpupower/internal/lint"
)

// Cross-package unit-inference facts for unitflow.
//
// The seed tables and the naming convention resolve units locally; what they
// cannot see is a value whose unit is only established in another package —
// hw.Config.CoreMHz flowing through an unconventionally-named governor
// helper into a serve DTO. This file closes that gap: when a call's result
// units are not locally decidable, unitflow asks for the callee's declaration
// (in the current package, or in a dependency via Pass.Dep), silently
// evaluates its return statements with the same lattice, and memoizes the
// verdict per *types.Func. Package-level vars get the same treatment via
// their initializers.
//
// Facts are memoized in the run-scoped lint.FactStore carried by the Pass,
// keyed by object identity — sound because each run's Loader type-checks
// each package exactly once, so every package of that run sees the same
// *types.Func for the same function (and the store dies with the run, so it
// never pins a retired Loader's type graph). An inference that had to
// assume a unit for an in-progress (cyclic) callee is "tainted" and never
// memoized: every cached fact is chain-independent, so the store's contents
// cannot depend on which packages ran before.
type resultFactKey struct{ fn *types.Func }

type varFactKey struct{ v *types.Var }

func cachedResultFact(pass *lint.Pass, fn *types.Func) ([]unit, bool) {
	v, ok := pass.Facts().Load(resultFactKey{fn})
	if !ok {
		return nil, false
	}
	return v.([]unit), true
}

func storeResultFact(pass *lint.Pass, fn *types.Func, us []unit) {
	pass.Facts().Store(resultFactKey{fn}, us)
}

func cachedVarFact(pass *lint.Pass, v *types.Var) (unit, bool) {
	u, ok := pass.Facts().Load(varFactKey{v})
	if !ok {
		return unitUnknown, false
	}
	return u.(unit), true
}

func storeVarFact(pass *lint.Pass, v *types.Var, u unit) {
	pass.Facts().Store(varFactKey{v}, u)
}

// inferredResultUnits derives the per-result units of an in-module function
// from its return statements, or nil when no verdict is possible (foreign
// package, no syntax, conflicting returns).
func (uf *unitFlowCheck) inferredResultUnits(fn *types.Func) []unit {
	if us, ok := cachedResultFact(uf.pass, fn); ok {
		return us
	}
	if uf.chain[fn] {
		// In-progress on this inference chain (recursion or mutual
		// recursion): assume unknown, and poison memoization upward so no
		// chain-dependent value is ever cached.
		uf.tainted = true
		return nil
	}
	fd, pkgPass := uf.declOf(fn)
	if fd == nil || fd.Body == nil || fd.Type.Results == nil {
		storeResultFact(uf.pass, fn, nil) // settled: no syntax to learn from
		return nil
	}
	sub := uf.subCheck(pkgPass, fn)
	us, tainted := sub.evalResultUnits(fd)
	if tainted {
		uf.tainted = true
		return us
	}
	storeResultFact(uf.pass, fn, us)
	return us
}

// inferredVarUnit derives a package-level variable's unit from its
// initializer, with the same memoization and taint rules.
func (uf *unitFlowCheck) inferredVarUnit(v *types.Var) unit {
	if v.Type() == nil || !isFloatish(v.Type()) {
		return unitUnknown
	}
	if u, ok := cachedVarFact(uf.pass, v); ok {
		return u
	}
	if uf.chain[v] {
		uf.tainted = true
		return unitUnknown
	}
	spec, idx, pkgPass := uf.varSpecOf(v)
	if spec == nil || len(spec.Values) != len(spec.Names) {
		storeVarFact(uf.pass, v, unitUnknown)
		return unitUnknown
	}
	sub := uf.subCheck(pkgPass, v)
	u := sub.unitOf(spec.Values[idx])
	if sub.tainted {
		uf.tainted = true
		return u
	}
	storeVarFact(uf.pass, v, u)
	return u
}

// subCheck builds the silent evaluator for one inference step: same lattice,
// reports discarded, chain extended with the object being derived.
func (uf *unitFlowCheck) subCheck(pass *lint.Pass, deriving types.Object) *unitFlowCheck {
	chain := make(map[types.Object]bool, len(uf.chain)+1)
	for o := range uf.chain {
		chain[o] = true
	}
	chain[deriving] = true
	return &unitFlowCheck{
		pass:     pass,
		env:      make(map[types.Object]unit),
		reported: make(map[token.Pos]bool),
		chain:    chain,
	}
}

// declScope resolves a *types.Package to the syntax and type facts it was
// checked from: the current pass for the package under analysis, Pass.Dep
// for in-module dependencies, nothing for foreign packages. The returned
// pass is silent — fact derivation re-reads syntax for its value only.
func (uf *unitFlowCheck) declScope(pkg *types.Package) ([]*ast.File, *types.Info, *lint.Pass) {
	pass := uf.pass
	if pkg == pass.Pkg {
		return pass.Files, pass.Info, pass.Silent()
	}
	dep, ok := pass.Dep(pkg.Path())
	if !ok || dep.Types != pkg {
		return nil, nil, nil
	}
	return dep.Files, dep.Info, pass.Scratch(dep)
}

// declOf locates the FuncDecl for an in-module function: in the current
// package's files, or in a dependency package reached through Pass.Dep.
// The returned pass is silent and scoped to the declaring package.
func (uf *unitFlowCheck) declOf(fn *types.Func) (*ast.FuncDecl, *lint.Pass) {
	if fn.Pkg() == nil {
		return nil, nil
	}
	files, info, declPass := uf.declScope(fn.Pkg())
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && info.Defs[fd.Name] == fn {
				return fd, declPass
			}
		}
	}
	return nil, nil
}

// varSpecOf locates the ValueSpec (and the name's index in it) declaring a
// package-level variable.
func (uf *unitFlowCheck) varSpecOf(v *types.Var) (*ast.ValueSpec, int, *lint.Pass) {
	if v.Pkg() == nil {
		return nil, 0, nil
	}
	files, info, pass := uf.declScope(v.Pkg())
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if info.Defs[name] == v {
						return vs, i, pass
					}
				}
			}
		}
	}
	return nil, 0, nil
}

// evalResultUnits evaluates a function's return statements and merges them
// slot-wise: every return must agree on a slot's unit or the slot is
// unknown. The walk seeds the local environment from assignments and range
// loops on the way (skipping nested function literals, whose returns belong
// to a different function).
func (uf *unitFlowCheck) evalResultUnits(fd *ast.FuncDecl) ([]unit, bool) {
	var resultObjs []types.Object
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			resultObjs = append(resultObjs, nil)
			continue
		}
		for _, name := range field.Names {
			resultObjs = append(resultObjs, uf.pass.Info.Defs[name])
		}
	}
	n := len(resultObjs)
	if n == 0 {
		return nil, false
	}

	units := make([]unit, n)
	sawReturn := false
	merge := func(i int, u unit) {
		if !sawReturn {
			return // first return seeds below
		}
		if units[i] != u {
			units[i] = unitUnknown
		}
	}

	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			uf.checkAssign(st)
		case *ast.ValueSpec:
			uf.checkValueSpec(st)
		case *ast.RangeStmt:
			uf.seedRange(st)
		case *ast.ReturnStmt:
			returns = append(returns, st)
		}
		return true
	})

	for _, ret := range returns {
		var this []unit
		switch {
		case len(ret.Results) == n:
			this = make([]unit, n)
			for i, e := range ret.Results {
				this[i] = uf.unitOf(e)
			}
		case len(ret.Results) == 0:
			// Bare return with named results: read the tracked/declared
			// units of the result variables themselves.
			this = make([]unit, n)
			for i, obj := range resultObjs {
				if obj == nil {
					continue
				}
				if u, ok := uf.env[obj]; ok {
					this[i] = u
				} else {
					this[i] = declaredUnit(obj)
				}
			}
		default:
			// return f() fan-out: take the callee's units if resolvable.
			if len(ret.Results) == 1 {
				if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
					if us := uf.callResultUnits(call); len(us) == n {
						this = us
					}
				}
			}
			if this == nil {
				this = make([]unit, n) // all unknown
			}
		}
		if !sawReturn {
			copy(units, this)
			sawReturn = true
			continue
		}
		for i, u := range this {
			merge(i, u)
		}
	}
	if !sawReturn {
		return nil, uf.tainted
	}
	all := unitUnknown
	for _, u := range units {
		if u != unitUnknown {
			all = u
		}
	}
	if all == unitUnknown {
		return nil, uf.tainted
	}
	return units, uf.tainted
}
