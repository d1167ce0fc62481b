package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package (plus, when the directory has
// an external test package, that package as a sibling entry produced by
// LoadAll).
type Package struct {
	// Path is the import path ("gpupower/internal/core"). External test
	// packages get the conventional "_test" suffix appended.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checker errors. A non-empty slice means
	// the analysis facts are incomplete and the run should be treated as
	// failed rather than clean.
	TypeErrors []error

	loader     *Loader     // back-link for Dep resolution
	deps       []string    // local import paths, recorded at load time
	xtestFiles []*ast.File // package foo_test files, hoisted into a sibling Package by LoadAll
	xtestPkg   *Package    // memoized external-test sibling, built on first LoadPackages
}

// Dep resolves a local import path to its loaded package, searching the
// package's direct imports first and then breadth-first through their
// imports. Cross-package analyses (unitflow's facts) use it to reach the
// syntax of the packages this one depends on; it never triggers a new load
// — every reachable dependency was loaded when this package type-checked.
func (p *Package) Dep(path string) (*Package, bool) {
	if p.loader == nil {
		return nil, false
	}
	seen := map[string]bool{p.Path: true}
	queue := append([]string(nil), p.deps...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		dep, ok := p.loader.completed(cur)
		if !ok {
			continue
		}
		if cur == path {
			return dep, true
		}
		queue = append(queue, dep.deps...)
	}
	return nil, false
}

// Loader parses and type-checks packages of a single module (or of a
// GOPATH-style fixture tree) without any toolchain dependency beyond the
// standard library. Local imports are loaded recursively from source and
// memoized, so each package is parsed and type-checked once per Loader;
// everything else is read from the export data one batched `go list`
// locates (see stdImporter), with a source-importer fallback.
//
// A Loader is single-goroutine state, like core.FitWorkspace: the lint
// engine loads and analyzes packages one after another (DESIGN.md §9.13
// says why).
type Loader struct {
	// RootDir is the directory tree containing the packages.
	RootDir string
	// RootPath is the module path prefix ("gpupower"). Empty means
	// GOPATH-fixture mode: import paths are directory paths relative to
	// RootDir ("maporder/internal/core").
	RootPath string
	// Tests includes _test.go files: in-package test files are type-checked
	// together with the package, external test files become a separate
	// "<path>_test" package.
	Tests bool

	fset    *token.FileSet
	loaded  map[string]loadResult // finished loads by import path, errors included
	loading []string              // in-progress loads, outermost first: an import of one is a cycle
	std     types.Importer        // export-data importer, built on the first non-local import
	srcImp  types.Importer
}

// loadResult is the memoized outcome of one package load.
type loadResult struct {
	pkg *Package
	err error
}

// NewLoader returns a loader over rootDir. rootPath is the module path prefix
// ("" for GOPATH-style fixture trees).
func NewLoader(rootDir, rootPath string) *Loader {
	return &Loader{
		RootDir:  rootDir,
		RootPath: rootPath,
		Tests:    true,
		fset:     token.NewFileSet(),
		loaded:   make(map[string]loadResult),
	}
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModule walks upward from dir to the enclosing go.mod and returns the
// module root directory and module path — the arguments NewLoader takes for
// the module a command runs in.
func FindModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("no module directive in %s", filepath.Join(abs, "go.mod"))
			}
			return abs, string(m[1]), nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s (run from inside the module)", dir)
		}
		abs = parent
	}
}

// Discover walks RootDir and returns the sorted import paths of every
// directory containing buildable .go files. testdata, vendor, hidden and
// underscore-prefixed directories are skipped (testdata trees deliberately
// contain invariant violations).
func (l *Loader) Discover() ([]string, error) {
	var paths []string
	err := filepath.Walk(l.RootDir, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if p != l.RootDir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.RootDir, dir)
		if err != nil {
			return err
		}
		paths = append(paths, l.relToPath(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// Deduplicate (one entry per .go file was appended).
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

// LoadAll loads every discovered package, hoisting external test packages
// into sibling entries, and returns them in deterministic path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths, err := l.Discover()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range paths {
		pkgs, err := l.LoadPackages(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// LoadPackages loads the package at path plus, when the directory carries an
// external test package, that package as a second entry. The external-test
// sibling is memoized, so repeated calls do not re-type-check it.
func (l *Loader) LoadPackages(path string) ([]*Package, error) {
	pkg, err := l.Load(path)
	if err != nil {
		return nil, fmt.Errorf("lint: load %s: %w", path, err)
	}
	out := []*Package{pkg}
	if len(pkg.xtestFiles) > 0 {
		if pkg.xtestPkg == nil {
			xp, err := l.checkXTest(pkg)
			if err != nil {
				return nil, fmt.Errorf("lint: load %s external tests: %w", path, err)
			}
			pkg.xtestPkg = xp
		}
		out = append(out, pkg.xtestPkg)
	}
	return out, nil
}

// completed returns the loaded package for path only if its load already
// finished; it never starts a load.
func (l *Loader) completed(path string) (*Package, bool) {
	r := l.loaded[path]
	return r.pkg, r.pkg != nil
}

func (l *Loader) relToPath(rel string) string {
	rel = filepath.ToSlash(rel)
	switch {
	case rel == "." && l.RootPath != "":
		return l.RootPath
	case rel == ".":
		return ""
	case l.RootPath != "":
		return l.RootPath + "/" + rel
	default:
		return rel
	}
}

func (l *Loader) pathToDir(path string) (string, bool) {
	var rel string
	switch {
	case l.RootPath != "" && path == l.RootPath:
		rel = "."
	case l.RootPath != "" && strings.HasPrefix(path, l.RootPath+"/"):
		rel = strings.TrimPrefix(path, l.RootPath+"/")
	case l.RootPath == "" && path != "":
		rel = path
	default:
		return "", false
	}
	dir := filepath.Join(l.RootDir, filepath.FromSlash(rel))
	fi, err := os.Stat(dir)
	if err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// local reports whether an import path resolves inside the loaded tree.
func (l *Loader) local(path string) bool {
	_, ok := l.pathToDir(path)
	return ok
}

// Load parses and type-checks the package at the given import path (module
// packages only; stdlib goes through the importer delegation). Results,
// errors included, are memoized: a repeated Load returns the same *Package.
func (l *Loader) Load(path string) (*Package, error) {
	if r, ok := l.loaded[path]; ok {
		return r.pkg, r.err
	}
	if slices.Contains(l.loading, path) {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading = append(l.loading, path)
	pkg, err := l.parseAndCheck(path)
	l.loading = l.loading[:len(l.loading)-1]
	l.loaded[path] = loadResult{pkg, err}
	return pkg, err
}

// parseAndCheck parses and type-checks one package.
func (l *Loader) parseAndCheck(path string) (*Package, error) {
	dir, ok := l.pathToDir(path)
	if !ok {
		return nil, fmt.Errorf("no package directory for %q under %s", path, l.RootDir)
	}
	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files, xtest []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(name, "_test.go") {
			xtest = append(xtest, f)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 && len(xtest) == 0 {
		return nil, fmt.Errorf("no buildable go files in %s", dir)
	}

	pkg := &Package{Path: path, Fset: l.fset, Files: files, loader: l, xtestFiles: xtest}
	pkg.deps = l.localImports(path, files)
	pkg.Types, pkg.Info, pkg.TypeErrors = l.check(path, files)
	if len(pkg.TypeErrors) > 0 {
		return pkg, pkg.TypeErrors[0]
	}
	return pkg, nil
}

// goFiles lists the names of the .go files in dir the loader reads: no
// hidden or underscore-prefixed files, and no _test.go files unless Tests.
func (l *Loader) goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.Tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// localImports collects the in-module import paths of a file set, sorted and
// deduplicated — the Dep search space for cross-package analyses.
func (l *Loader) localImports(path string, files []*ast.File) []string {
	set := make(map[string]bool)
	for _, f := range files {
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if p != path && l.local(p) {
				set[p] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// check type-checks one set of files as the package named by path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := &types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	return tpkg, info, errs
}

// checkXTest type-checks the external test files of pkg as "<path>_test".
// Its import of the package under test resolves to the already-loaded
// in-package object (which includes export_test.go declarations, matching the
// go toolchain's test-binary semantics).
func (l *Loader) checkXTest(pkg *Package) (*Package, error) {
	xp := &Package{Path: pkg.Path + "_test", Fset: l.fset, Files: pkg.xtestFiles, loader: l}
	xp.deps = l.localImports(xp.Path, pkg.xtestFiles)
	xp.Types, xp.Info, xp.TypeErrors = l.check(xp.Path, pkg.xtestFiles)
	if len(xp.TypeErrors) > 0 {
		return xp, xp.TypeErrors[0]
	}
	return xp, nil
}

// importPkg is the recursive in-module importer: local packages are loaded
// from source (memoized), "unsafe" maps to types.Unsafe, and everything
// else — the standard library — is read from export data (stdImporter),
// falling back to the slower source importer when none is available.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.local(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.std == nil {
		l.std = l.stdImporter()
	}
	tp, err := l.std.Import(path)
	if err == nil {
		return tp, nil
	}
	if l.srcImp == nil {
		l.srcImp = importer.ForCompiler(l.fset, "source", nil)
	}
	tp2, err2 := l.srcImp.Import(path)
	if err2 != nil {
		return nil, fmt.Errorf("import %q: %w (source fallback: %v)", path, err, err2)
	}
	return tp2, nil
}

// stdImporter builds the gc export-data importer for the tree's non-local
// imports. importer.Default() runs one `go list -export` per package it
// imports; this runs one for all of them: an imports-only parse of every
// discovered package collects the non-local imports, and a single
// `go list -e -export -deps` maps them and everything they import to their
// export data. Like importer.Default, it runs GOROOT's go binary in GOROOT,
// so the export data always matches the reader compiled into this binary.
// A path go list gave no export data for (or a failed go list) makes Import
// fail, and importPkg falls back to the source importer.
func (l *Loader) stdImporter() types.Importer {
	exports := make(map[string]string)
	var listErr error
	if imports := l.nonLocalImports(); len(imports) > 0 {
		goroot := build.Default.GOROOT
		args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, imports...)
		cmd := exec.Command(filepath.Join(goroot, "bin", "go"), args...)
		cmd.Dir = goroot
		cmd.Env = append(os.Environ(), "PWD="+goroot, "GOROOT="+goroot)
		var out []byte
		out, listErr = cmd.Output()
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, " "); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok {
			return os.Open(file)
		}
		if listErr != nil {
			return nil, fmt.Errorf("go list: %w", listErr)
		}
		return nil, fmt.Errorf("go list reported no export data for %q", path)
	})
}

// nonLocalImports returns the sorted, deduplicated import paths, other than
// "unsafe", that the tree's packages import from outside it. Files that do
// not parse are skipped: loading them reports the error.
func (l *Loader) nonLocalImports() []string {
	paths, err := l.Discover()
	if err != nil {
		return nil
	}
	fset := token.NewFileSet()
	set := make(map[string]bool)
	for _, path := range paths {
		dir, _ := l.pathToDir(path)
		names, err := l.goFiles(dir)
		if err != nil {
			continue
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				continue
			}
			for _, spec := range f.Imports {
				set[strings.Trim(spec.Path.Value, `"`)] = true
			}
		}
	}
	var out []string
	for p := range set {
		if p != "unsafe" && !l.local(p) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
