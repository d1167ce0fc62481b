package lint

import (
	"go/token"
	"strings"
	"testing"
)

// TestImporterChain type-checks a cycle-free local-import chain
// (chainmod/a → chainmod/b → chainmod/c → strings) through the recursive
// in-module importer, asserting local resolution, memoization and stdlib
// delegation.
func TestImporterChain(t *testing.T) {
	l := NewLoader("testdata/chain", "chainmod")
	pkg, err := l.Load("chainmod/a")
	if err != nil {
		t.Fatalf("load chainmod/a: %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if pkg.Types.Name() != "a" {
		t.Errorf("package name = %q, want a", pkg.Types.Name())
	}
	if pkg.Types.Scope().Lookup("Top") == nil {
		t.Error("chainmod/a lost its Top declaration")
	}

	// The chain must have pulled b and c in transitively, memoized.
	for _, dep := range []string{"chainmod/b", "chainmod/c"} {
		cached, ok := l.completed(dep)
		if !ok {
			t.Fatalf("transitive dependency %s was not loaded", dep)
		}
		reloaded, err := l.Load(dep)
		if err != nil {
			t.Fatalf("reload %s: %v", dep, err)
		}
		if reloaded != cached {
			t.Errorf("%s was re-loaded instead of memoized", dep)
		}
	}

	// Leaf's stdlib import went through the delegating importer.
	c, err := l.Load("chainmod/c")
	if err != nil {
		t.Fatal(err)
	}
	foundStrings := false
	for _, imp := range c.Types.Imports() {
		if imp.Path() == "strings" {
			foundStrings = true
		}
	}
	if !foundStrings {
		t.Error("chainmod/c does not record its strings import")
	}

	// Discovery sees exactly the three chain packages, in sorted order.
	paths, err := l.Discover()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chainmod/a", "chainmod/b", "chainmod/c"}
	if len(paths) != len(want) {
		t.Fatalf("Discover = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Discover = %v, want %v", paths, want)
		}
	}
}

// TestImporterRejectsLocalCycle: go/types cannot represent import cycles, so
// the recursive importer must refuse them with a diagnosable error instead
// of recursing forever.
func TestImporterRejectsLocalCycle(t *testing.T) {
	l := NewLoader("testdata/cycle", "cyclemod")
	_, err := l.Load("cyclemod/x")
	if err == nil {
		t.Fatal("loading a cyclic import chain succeeded")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error does not mention the cycle: %v", err)
	}
}

// TestLoadAllModule smoke-loads the real module through the loader — the
// exact path cmd/gpowerlint takes — and asserts every package type-checks.
func TestLoadAllModule(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check in -short mode")
	}
	root, modPath := "../..", "gpupower"
	l := NewLoader(root, modPath)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages", len(pkgs))
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		if seen[p.Path] {
			t.Errorf("duplicate package %s", p.Path)
		}
		seen[p.Path] = true
		if len(p.TypeErrors) != 0 {
			t.Errorf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
	// The external test packages ride along as "_test" siblings.
	if !seen["gpupower_test"] {
		t.Error("root external test package was not hoisted")
	}
}

// TestThreePackageCycle loads the a→b→c→a cycle from every root: whichever
// package the load starts at, the cycle must come back as an error naming
// it, not as unbounded recursion.
func TestThreePackageCycle(t *testing.T) {
	for _, root := range []string{"cycle3mod/a", "cycle3mod/b", "cycle3mod/c"} {
		l := NewLoader("testdata/cycle3", "cycle3mod")
		if _, err := l.Load(root); err == nil || !strings.Contains(err.Error(), "import cycle") {
			t.Errorf("Load(%s) = %v, want an import cycle error", root, err)
		}
	}
}

// TestPassIsTestFile covers the _test.go exemption plumbing analyzers rely on.
func TestPassIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	base1 := fset.AddFile("pkg.go", -1, 100)
	base2 := fset.AddFile("pkg_test.go", -1, 100)
	p := &Pass{Fset: fset}
	if p.IsTestFile(base1.Pos(0)) {
		t.Error("pkg.go classified as a test file")
	}
	if !p.IsTestFile(base2.Pos(0)) {
		t.Error("pkg_test.go not classified as a test file")
	}
}
