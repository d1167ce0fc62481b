// Package alloccheck statically proves zero-allocation hot paths.
//
// For every function annotated //gpower:noalloc it walks the full static
// call graph and proves that no reachable statement can allocate, flagging
// violations by taxonomy (see Category). Calls it cannot resolve —
// interface dispatch, func values, unlisted externals — default to
// may-allocate: the proof is conservative by construction. The
// //gpower:allocs <reason> escape hatch suppresses individually justified
// sites (cold miss paths, warm-up growth) with //lint:ignore discipline:
// reasons are mandatory and dead hatches are errors.
//
// The proof is whole-module rather than per-package, so it is not a
// lint.Analyzer: gpowerlint runs it over the packages it has already
// loaded for its analyzers and reports it through Result.Report. Verdicts
// are memoized per function with cycle tainting (a verdict computed
// through an in-progress call chain is never cached), so output is
// deterministic and position-ordered regardless of which root is proven
// first. DESIGN.md §13 documents the semantics and the known
// conservatisms.
package alloccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"gpupower/internal/lint"
)

// funcUnit is one function body the checker can walk.
type funcUnit struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *lint.Package
}

// localInfo is the memoized intra-procedural analysis of one function:
// direct allocation sites (escape hatches already applied), static
// in-module call edges, and the hatches that suppressed direct sites.
type localInfo struct {
	sites    []Site
	calls    []callEdge
	usedDirs []*hatch // distinct hatches that suppressed something here
}

// verdict is the interprocedural result for one function.
type verdict struct {
	proven  bool
	tainted bool // computed through an in-progress cycle: never memoized
	sites   []Site
}

// RootResult is the proof outcome for one annotated root.
type RootResult struct {
	// Func is the fully-qualified function name.
	Func string
	// Pos is the declaration position.
	Pos token.Position
	// Proven reports whether the whole reachable call graph is
	// allocation-free (after escape hatches).
	Proven bool
	// Findings are the surviving allocation sites, position-ordered.
	Findings []Site
	// Functions counts the distinct in-module functions walked from this
	// root (including the root itself).
	Functions int
	// Hatches counts the distinct escape hatches applied in this root's
	// call graph.
	Hatches int
}

// Result is one whole-module proof run.
type Result struct {
	// Roots holds every annotated function, position-ordered.
	Roots []RootResult
	// BadDirectives are malformed, misplaced or dead annotations, one
	// diagnostic at each; any entry fails the run even when all roots
	// prove clean.
	BadDirectives []lint.Diagnostic
	// Summary totals.
	RootCount       int
	ProvenCount     int
	HatchesUsed     int
	FunctionsWalked int
}

// Clean reports whether the run proves every root with no bad directives.
func (r *Result) Clean() bool {
	return len(r.BadDirectives) == 0 && r.ProvenCount == r.RootCount
}

// Checker proves //gpower:noalloc roots over a loaded module.
type Checker struct {
	pkgs  []*lint.Package
	units map[*types.Func]*funcUnit

	hatches map[string][]*hatch // file -> hatches, for site suppression
	bad     []lint.Diagnostic

	locals      map[*types.Func]*localInfo
	verdicts    map[*types.Func]*verdict
	inProgress  map[*types.Func]bool
	used        map[*hatch]bool
	edgeDirs    map[*types.Func][]*hatch // call-edge suppressions per caller
	walkedByPos []*funcUnit              // units with computed locals, discovery order
}

// NewChecker builds the function index over loaded packages: the whole
// module, as Loader.LoadAll returns it, for a proof of every root. Whether
// _test.go files take part is the loader's choice (Loader.Tests).
func NewChecker(pkgs []*lint.Package) *Checker {
	c := &Checker{
		pkgs:       pkgs,
		units:      make(map[*types.Func]*funcUnit),
		hatches:    make(map[string][]*hatch),
		locals:     make(map[*types.Func]*localInfo),
		verdicts:   make(map[*types.Func]*verdict),
		inProgress: make(map[*types.Func]bool),
		used:       make(map[*hatch]bool),
		edgeDirs:   make(map[*types.Func][]*hatch),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				c.units[fn] = &funcUnit{obj: fn, decl: fd, pkg: pkg}
			}
		}
		ds := parseDirectives(pkg)
		c.bad = append(c.bad, ds.bad...)
		for _, h := range ds.hatches {
			c.hatches[h.pos.Filename] = append(c.hatches[h.pos.Filename], h)
		}
	}
	return c
}

// Check proves every annotated root in the module and reports the outcome.
// The walk order is fixed by source position, memoized verdicts are
// chain-independent, and all output slices are position-sorted, so two runs
// over the same tree produce byte-identical reports.
func (c *Checker) Check() *Result {
	roots := c.findRoots()
	res := &Result{BadDirectives: append([]lint.Diagnostic(nil), c.bad...)}
	for _, u := range roots {
		v := c.prove(u.obj)
		fns, dirs := c.reachable(u.obj)
		rr := RootResult{
			Func:      u.obj.FullName(),
			Pos:       u.pkg.Fset.Position(u.decl.Pos()),
			Proven:    v.proven,
			Findings:  append([]Site(nil), v.sites...),
			Functions: fns,
			Hatches:   dirs,
		}
		res.Roots = append(res.Roots, rr)
	}
	// Dead escape hatches: evaluated inside a walked function but never
	// suppressing anything. Silent dead suppressions rot; fail loudly.
	for _, u := range c.walkedByPos {
		start := u.pkg.Fset.Position(u.decl.Pos())
		end := u.pkg.Fset.Position(u.decl.End())
		for _, h := range c.hatches[start.Filename] {
			if h.pos.Line >= start.Line && h.pos.Line <= end.Line && !c.used[h] {
				res.BadDirectives = append(res.BadDirectives, badDirective(h.pos,
					"escape hatch suppresses no allocation site (reason: %s)", h.reason))
			}
		}
	}
	sort.Slice(res.BadDirectives, func(i, j int) bool {
		return res.BadDirectives[i].String() < res.BadDirectives[j].String()
	})
	res.RootCount = len(res.Roots)
	for i := range res.Roots {
		if res.Roots[i].Proven {
			res.ProvenCount++
		}
	}
	res.FunctionsWalked = len(c.locals)
	for _, u := range c.walkedByPos {
		res.HatchesUsed += len(c.distinctDirs(u.obj))
	}
	return res
}

// findRoots returns every //gpower:noalloc function, position-ordered.
func (c *Checker) findRoots() []*funcUnit {
	var roots []*funcUnit
	for _, pkg := range c.pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !isNoallocRoot(fd) {
					continue
				}
				if fd.Body == nil {
					c.bad = append(c.bad, badDirective(pkg.Fset.Position(fd.Pos()),
						"%s on a bodyless declaration proves nothing", noallocPrefix))
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, c.units[fn])
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		pi := roots[i].pkg.Fset.Position(roots[i].decl.Pos())
		pj := roots[j].pkg.Fset.Position(roots[j].decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return roots
}

// local computes (once) the intra-procedural analysis of fn: raw sites are
// collected, escape hatches applied, and the surviving sites sorted.
func (c *Checker) local(fn *types.Func) *localInfo {
	if li, ok := c.locals[fn]; ok {
		return li
	}
	u := c.units[fn]
	rawSites, calls := collectSites(u.pkg, c.units, u.decl)
	li := &localInfo{}
	seenDir := make(map[*hatch]bool)
	for i := range rawSites {
		if h := c.coveringHatch(rawSites[i].Pos); h != nil {
			c.used[h] = true
			if !seenDir[h] {
				seenDir[h] = true
				li.usedDirs = append(li.usedDirs, h)
			}
			continue
		}
		li.sites = append(li.sites, rawSites[i])
	}
	for i := range calls {
		calls[i].hatch = c.coveringHatch(calls[i].pos)
	}
	li.calls = calls
	sortSites(li.sites)
	c.locals[fn] = li
	c.walkedByPos = append(c.walkedByPos, u)
	return li
}

func (c *Checker) coveringHatch(pos token.Position) *hatch {
	for _, h := range c.hatches[pos.Filename] {
		if h.covers(pos) {
			return h
		}
	}
	return nil
}

// prove computes fn's verdict. Cycles resolve optimistically at the back
// edge — allocation is a may-property, so the least fixed point is sound:
// every direct site of every cycle member is still collected exactly once
// at that member and propagated to the entry point. Verdicts computed
// through an in-progress chain are tainted and never memoized, which makes
// the memo contents independent of which root was proven first.
func (c *Checker) prove(fn *types.Func) verdict {
	if v, ok := c.verdicts[fn]; ok {
		return *v
	}
	if c.inProgress[fn] {
		return verdict{proven: true, tainted: true}
	}
	c.inProgress[fn] = true
	defer delete(c.inProgress, fn)

	li := c.local(fn)
	v := verdict{sites: append([]Site(nil), li.sites...)}
	for _, edge := range li.calls {
		sub := c.prove(edge.fn)
		if sub.tainted {
			v.tainted = true
		}
		if sub.proven {
			continue
		}
		if edge.hatch != nil {
			c.used[edge.hatch] = true
			c.edgeDirs[fn] = append(c.edgeDirs[fn], edge.hatch)
			continue
		}
		site := Site{
			Cat:    CatCall,
			Pos:    edge.pos,
			Callee: edge.name,
			Msg:    fmt.Sprintf("calls %s, which is not proven allocation-free", edge.name),
		}
		if len(sub.sites) > 0 {
			under := sub.sites[0]
			site.Underlying = &under
		}
		v.sites = append(v.sites, site)
	}
	sortSites(v.sites)
	v.proven = len(v.sites) == 0
	if !v.tainted {
		stored := v
		stored.sites = append([]Site(nil), v.sites...)
		c.verdicts[fn] = &stored
	}
	return v
}

// reachable counts the distinct functions and applied escape hatches in
// fn's static call graph.
func (c *Checker) reachable(fn *types.Func) (functions, hatches int) {
	seen := map[*types.Func]bool{fn: true}
	queue := []*types.Func{fn}
	dirs := make(map[*hatch]bool)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range c.distinctDirs(cur) {
			dirs[h] = true
		}
		for _, edge := range c.locals[cur].calls {
			if !seen[edge.fn] {
				seen[edge.fn] = true
				queue = append(queue, edge.fn)
			}
		}
	}
	return len(seen), len(dirs)
}

// distinctDirs returns the distinct hatches applied inside fn (direct-site
// suppressions plus call-edge suppressions).
func (c *Checker) distinctDirs(fn *types.Func) []*hatch {
	li := c.locals[fn]
	if li == nil {
		return nil
	}
	seen := make(map[*hatch]bool)
	var out []*hatch
	for _, h := range li.usedDirs {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, h := range c.edgeDirs[fn] {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

func sortSites(sites []Site) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i].Pos, sites[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return sites[i].Msg < sites[j].Msg
	})
}
