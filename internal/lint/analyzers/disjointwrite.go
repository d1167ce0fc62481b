package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"gpupower/internal/lint"
)

// DisjointWrite mechanizes the DESIGN.md §7 disjoint-write convention: a
// closure handed to the worker pool may write shared (captured) state only
// through slots selected by its loop index — slot i belongs to iteration i,
// slot w to worker w — so parallel execution stays bitwise-identical to
// serial and data-race-free by construction.
var DisjointWrite = &lint.Analyzer{
	Name: "disjointwrite",
	Doc: `flags non-index-derived writes to captured state in parallel closures.

For every function literal passed to parallel.ForEach / ForEachWorker / Map
(package functions and *Pool methods alike), the closure body is scanned for writes to variables declared outside it. A write is legal
only when it lands in a slot derived from the closure's loop parameters: a
slice/array element whose index expression mentions i or w (directly or
through locals assigned from them, e.g. r := i*stride; buf[r] = v), or memory
reached through an alias obtained with an i-derived selection (row :=
m.RowView(i); row[j] = v). Writes to whole captured variables, to captured
maps (concurrent map writes race regardless of key), and to elements at
indices unrelated to the loop parameters are reported. Method calls on
shared receivers are checked through per-method mutation summaries: when an
in-module method provably writes through its receiver (directly, or
transitively via other receiver methods), calling it on captured state whose
selection is not loop-derived is reported like the underlying write would
be. Methods whose bodies are unavailable (stdlib, interfaces) summarize to
non-mutating, so externally-synchronized state (mu.Lock) stays quiet at the
call and must be annotated where its guarded writes occur, with
//lint:ignore disjointwrite and a reason.`,
	Run: runDisjointWrite,
}

// parallelEntryPoints are the worker-pool loop functions whose final
// argument is the per-item closure. Package-level functions and *Pool
// methods share these names.
var parallelEntryPoints = map[string]bool{
	"ForEach":       true,
	"ForEachWorker": true,
	"Map":           true,
}

func runDisjointWrite(pass *lint.Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), "internal/parallel") {
		// The pool implementation itself is the one sanctioned place where
		// goroutines and shared slices meet; it is covered by -race and the
		// equivalence suite, not by this syntactic convention.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, lit := parallelCallback(pass.Info, call)
			if lit != nil {
				dw := &disjointWriteCheck{pass: pass, entry: name, lit: lit}
				dw.run()
			}
			return true
		})
	}
	return nil
}

// parallelCallback returns the entry-point name and the function-literal
// callback of a worker-pool loop call, or ("", nil).
func parallelCallback(info *types.Info, call *ast.CallExpr) (string, *ast.FuncLit) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil
	}
	if !pathHasSuffix(fn.Pkg().Path(), "internal/parallel") || !parallelEntryPoints[fn.Name()] {
		return "", nil
	}
	if len(call.Args) == 0 {
		return "", nil
	}
	lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		// A named function passed as the callback is analyzed at its own
		// definition only if it is itself a parallel callback elsewhere;
		// the convention keeps loop bodies as literals, so this is rare.
		return "", nil
	}
	return fn.Name(), lit
}

// disjointWriteCheck is the per-closure dataflow pass. Two intra-closure
// facts are tracked per local object:
//
//   - derived:   the value is (transitively) computed from a loop parameter,
//     so using it as an index selects an item-owned slot;
//   - aliasShared / aliasDerived: the local aliases captured memory (row :=
//     m.RowView(r)), and whether that alias was selected by a derived value.
//
// Both are propagated in a single syntactic-order pass — good enough for
// the straight-line loop bodies the convention prescribes, and strictly
// conservative: an undecidable write is reported, never ignored.
type disjointWriteCheck struct {
	pass  *lint.Pass
	entry string
	lit   *ast.FuncLit

	derived      map[types.Object]bool
	aliasShared  map[types.Object]bool
	aliasDerived map[types.Object]bool
}

func (dw *disjointWriteCheck) run() {
	dw.derived = make(map[types.Object]bool)
	dw.aliasShared = make(map[types.Object]bool)
	dw.aliasDerived = make(map[types.Object]bool)

	// Every callback parameter is an index seed: ForEach/Map pass
	// (i), ForEachWorker passes (worker, i) — per-worker scratch indexed by
	// w is as disjoint as per-item slots indexed by i.
	if dw.lit.Type.Params != nil {
		for _, field := range dw.lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := dw.pass.Info.Defs[name]; obj != nil {
					dw.derived[obj] = true
				}
			}
		}
	}

	ast.Inspect(dw.lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if _, lit := parallelCallback(dw.pass.Info, inner); lit != nil {
				// A nested pool loop is checked by its own pass; descending
				// here would double-report its writes against the outer seeds.
				return false
			}
			dw.checkMethodCall(inner)
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			dw.propagate(st)
			dw.checkAssign(st)
		case *ast.IncDecStmt:
			dw.checkWrite(st.X, st.Pos())
		case *ast.RangeStmt:
			dw.propagateRange(st)
		}
		return true
	})
}

// localObj resolves e to a variable object declared inside the closure.
func (dw *disjointWriteCheck) localObj(e ast.Expr) types.Object {
	obj := identObj(dw.pass.Info, e)
	if obj == nil {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	if obj.Pos() < dw.lit.Pos() || obj.Pos() > dw.lit.End() {
		return nil
	}
	return obj
}

// capturedVar resolves e to a variable captured from outside the closure
// (including package-level variables).
func (dw *disjointWriteCheck) capturedVar(e ast.Expr) types.Object {
	obj := identObj(dw.pass.Info, e)
	if obj == nil {
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if v.Pos() >= dw.lit.Pos() && v.Pos() <= dw.lit.End() {
		return nil
	}
	return v
}

// mentionsDerived reports whether any identifier in e resolves to a
// loop-parameter-derived value.
func (dw *disjointWriteCheck) mentionsDerived(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := dw.pass.Info.Uses[id]; obj != nil && (dw.derived[obj] || dw.aliasDerived[obj]) {
				found = true
			}
		}
		return !found
	})
	return found
}

// mentionsShared reports whether e references captured variables or shared
// aliases — i.e. whether a value computed from e can alias shared memory.
func (dw *disjointWriteCheck) mentionsShared(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := dw.pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			if dw.aliasShared[obj] {
				found = true
			} else if v, ok := obj.(*types.Var); ok && (v.Pos() < dw.lit.Pos() || v.Pos() > dw.lit.End()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// freshAlloc reports whether e's top-level form provably creates new memory
// (make/new/composite literal), so a local initialized from it owns its
// storage even when size arguments mention captured variables.
func freshAlloc(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "make" || b.Name() == "new"
			}
		}
	}
	return false
}

// aliasCapable reports whether a value of this type can alias other memory:
// pointers, slices, maps, interfaces and channels can; plain scalars and
// value structs cannot. (Keyed on the declared object's type, not Info.Types,
// because the LHS ident of a := definition has no recorded expression type.)
func aliasCapable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return true
	}
	return false
}

// propagate updates the derived/alias facts for locals on the LHS of an
// assignment.
func (dw *disjointWriteCheck) propagate(st *ast.AssignStmt) {
	// Only 1:1 and n:n forms propagate; the rare multi-value call form
	// (v, err := f(...)) conservatively taints every LHS from the call expr.
	for i, lhs := range st.Lhs {
		obj := dw.localObj(lhs)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0]
		} else {
			continue
		}
		if dw.mentionsDerived(rhs) {
			dw.derived[obj] = true
		}
		if aliasCapable(obj.Type()) && dw.mentionsShared(rhs) && !freshAlloc(dw.pass.Info, rhs) {
			dw.aliasShared[obj] = true
			if dw.mentionsDerived(rhs) {
				dw.aliasDerived[obj] = true
			}
		}
	}
}

// propagateRange seeds range key/value locals: ranging over an i-derived or
// shared-aliased container propagates both facts onto the element variables.
func (dw *disjointWriteCheck) propagateRange(st *ast.RangeStmt) {
	seed := func(e ast.Expr) {
		obj := dw.localObj(e)
		if obj == nil {
			return
		}
		if dw.mentionsDerived(st.X) {
			dw.derived[obj] = true
		}
		if aliasCapable(obj.Type()) && dw.mentionsShared(st.X) {
			dw.aliasShared[obj] = true
			if dw.mentionsDerived(st.X) {
				dw.aliasDerived[obj] = true
			}
		}
	}
	if st.Key != nil {
		seed(st.Key)
	}
	if st.Value != nil {
		seed(st.Value)
	}
}

// checkMethodCall consults the per-method mutation summary for calls whose
// receiver reaches captured state without a loop-derived selection: t.Set(k,
// v) on a captured table is the same race as t.m[k] = v, one call deeper.
func (dw *disjointWriteCheck) checkMethodCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := calleeFunc(dw.pass.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := sel.X
	if !dw.mentionsShared(recv) || dw.mentionsDerived(recv) {
		// Receiver is closure-owned, or was selected by a loop parameter
		// (rows[i].Accumulate(v) targets iteration i's own slot).
		return
	}
	if mutates, _ := methodMutates(dw.pass, fn, nil); !mutates {
		return
	}
	dw.pass.Reportf(call.Pos(),
		"call to %s.%s inside a parallel.%s closure mutates shared state through its receiver: the method's writes race across iterations exactly like direct assignments; target an index-owned slot or annotate the external synchronization (DESIGN.md §7)",
		types.ExprString(recv), fn.Name(), dw.entry)
}

// checkAssign inspects every assigned lvalue. Pure definitions (:= creating
// locals) are not writes to shared state; everything else goes through
// checkWrite.
func (dw *disjointWriteCheck) checkAssign(st *ast.AssignStmt) {
	for _, lhs := range st.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if st.Tok == token.DEFINE {
			continue // := always creates or rebinds closure-local names
		}
		dw.checkWrite(lhs, st.Pos())
	}
}

// checkWrite classifies one written lvalue and reports violations of the
// disjoint-write convention.
func (dw *disjointWriteCheck) checkWrite(lhs ast.Expr, pos token.Pos) {
	// Whole-variable write to a captured variable: never disjoint.
	if v := dw.capturedVar(lhs); v != nil {
		dw.pass.Reportf(pos,
			"write to captured variable %q inside a parallel.%s closure: whole-variable writes race across iterations; give each item its own slot (out[i] = ...) and fold after the loop (DESIGN.md §7 disjoint-write convention)",
			v.Name(), dw.entry)
		return
	}
	if obj := dw.localObj(lhs); obj != nil {
		return // rebinding a closure-local scalar/slice header is private
	}

	// Walk the lvalue chain down to its base, tracking whether any index
	// step is loop-derived and whether the outermost step writes a map.
	indexDerived := false
	mapWrite := false
	e := ast.Unparen(lhs)
	if ix, ok := e.(*ast.IndexExpr); ok {
		if tv, ok := dw.pass.Info.Types[ix.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				mapWrite = true
			}
		}
	}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			if dw.mentionsDerived(x.Index) {
				indexDerived = true
			}
			e = x.X
			continue
		case *ast.SelectorExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.Ident:
			obj := dw.pass.Info.Uses[x]
			if obj == nil {
				return
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			local := v.Pos() >= dw.lit.Pos() && v.Pos() <= dw.lit.End()
			shared := !local || dw.aliasShared[obj]
			if !shared {
				return // closure-owned memory: always fine
			}
			if dw.derived[obj] || dw.aliasDerived[obj] {
				indexDerived = true // the alias itself was selected by i
			}
			if mapWrite {
				dw.pass.Reportf(pos,
					"write into captured map through %q inside a parallel.%s closure: concurrent map writes race regardless of key; collect per-item results in an index-owned slice and fold into the map after the loop (DESIGN.md §7)",
					v.Name(), dw.entry)
				return
			}
			if !indexDerived {
				dw.pass.Reportf(pos,
					"write to shared state through %q inside a parallel.%s closure is not indexed by a loop parameter: iteration i may write only slot i (or derived indices like i*stride+k); derive the index from the closure's parameters or annotate the external synchronization (DESIGN.md §7)",
					v.Name(), dw.entry)
			}
			return
		default:
			return // unresolvable base (call result, type assertion): out of scope
		}
	}
}
