// Package lint is a dependency-free static-analysis engine for the gpupower
// module. It mechanically enforces the repository's load-bearing invariants —
// bitwise serial/parallel determinism, context cancellation at iteration
// granularity, numerical hygiene, MHz/volts/watts provenance and the
// worker-pool concurrency discipline — that would otherwise rely on reviewer
// vigilance alone.
//
// The engine is built exclusively on the go standard library (go/parser,
// go/ast, go/types, go/token): packages are parsed and type-checked in-module
// by a small recursive importer (see Loader) that reads standard-library
// imports from the export data one batched `go list` locates. Analyzers
// implement the Analyzer interface and report Diagnostics; findings can be
// suppressed at a specific site with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// either as a trailing comment on the offending line or on its own line
// immediately above it. The reason is mandatory: an invariant exception that
// cannot be justified in half a sentence is a bug, not an exception.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// FactStore memoizes cross-package analysis facts (unitflow's result and
// package-level var units) for one engine run. Keys are small comparable
// structs wrapping type-checker objects, so identity keying is sound
// exactly as long as the store lives no longer than the Loader whose type
// graph produced the objects — which is why the store hangs off the
// Runner (one per run) rather than off the analyzers package: a process that
// runs the engine repeatedly (tests, a long-running embedding) must not pin
// every run's type graph and ASTs for its lifetime. The engine runs packages
// serially, but FactStore is exported, so its methods still lock.
// Determinism is the analyzers' responsibility: chain-dependent "tainted"
// verdicts are never stored, so no fact depends on which packages ran
// before it — a fixture run over a few packages and a module run agree.
type FactStore struct {
	mu sync.Mutex
	m  map[any]any
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[any]any)} }

// Load returns the fact stored under key, if any.
func (s *FactStore) Load(key any) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// Store records a fact under key.
func (s *FactStore) Store(key, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = val
}

// Analyzer is one static check. Analyzers are stateless: Run is invoked once
// per type-checked package and reports findings through the Pass.
type Analyzer struct {
	// Name is the short identifier used in output and in //lint:ignore
	// directives (e.g. "maporder").
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces, shown by `gpowerlint -list`.
	Doc string
	// Run inspects one package and reports diagnostics via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (including in-package _test.go
	// files when the loader runs with Tests enabled).
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker facts for Files.
	Info *types.Info
	// Deps resolves a local import path to the loaded package it names,
	// searching this package's transitive in-module imports. The Runner wires
	// it from the Loader; it is nil in hand-constructed passes, which Dep
	// tolerates. unitflow's cross-package provenance facts use it to read
	// dependency syntax — dependency packages are always fully loaded by
	// the time this package type-checked, so resolution never triggers new
	// work.
	Deps func(path string) (*Package, bool)

	diags *[]Diagnostic
	facts *FactStore
}

// Dep resolves a local import path to its loaded dependency package, or
// (nil, false) when the path is not an in-module dependency or the pass has
// no loader behind it.
func (p *Pass) Dep(path string) (*Package, bool) {
	if p.Deps == nil {
		return nil, false
	}
	return p.Deps(path)
}

// Facts returns the run-scoped fact store shared by every pass of one
// Runner run (the Runner wires it in; hand-constructed passes get a private
// store on first use, allocated lazily so zero-value passes keep working).
func (p *Pass) Facts() *FactStore {
	if p.facts == nil {
		p.facts = NewFactStore()
	}
	return p.facts
}

// Silent returns a copy of the pass whose reports are discarded. Fact
// derivation re-evaluates syntax (sometimes of dependency packages) purely
// for its value; any diagnostics that evaluation would raise belong to the
// package's own analysis run, not to the querying one. The fact store is
// shared: silent derivations feed the same run-scoped memoization.
func (p *Pass) Silent() *Pass {
	var discard []Diagnostic
	q := *p
	q.facts = p.Facts()
	q.diags = &discard
	return &q
}

// Scratch builds a report-discarding pass over a loaded dependency package,
// for analyzers that walk its syntax to derive cross-package facts. It
// shares the parent pass's fact store, keeping memoization run-scoped.
func (p *Pass) Scratch(pkg *Package) *Pass {
	var discard []Diagnostic
	return &Pass{
		Analyzer: p.Analyzer,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Deps:     pkg.Dep,
		diags:    &discard,
		facts:    p.Facts(),
	}
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding, positioned in file:line:col terms.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the canonical single-line form used by the CLI.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}
