// Package linttest is the annotated-fixture harness for gpowerlint
// analyzers, in the spirit of golang.org/x/tools' analysistest but built on
// the standard library only.
//
// Fixtures live in GOPATH-style trees (testdata/src/<importpath>/...). A
// line that should produce a diagnostic carries a trailing comment
//
//	// want "regexp"
//
// (several quoted regexps may follow one want). The harness runs the
// analyzer through the full engine — including //lint:ignore suppression —
// and asserts an exact one-to-one match: every want is satisfied by a
// diagnostic on its line, and every diagnostic is expected by a want.
package linttest

import (
	"fmt"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gpupower/internal/lint"
)

// wantRe matches the quoted regexps of a want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the given fixture packages from testdata/src (GOPATH-style: the
// pattern "maporder/..." loads every package under that prefix) and checks
// the analyzer's diagnostics against the // want annotations.
func Run(t *testing.T, testdata string, a *lint.Analyzer, patterns ...string) {
	t.Helper()
	RunAnalyzers(t, testdata, []*lint.Analyzer{a}, patterns...)
}

// RunAnalyzers is Run over a set of analyzers sharing one fixture tree —
// needed by engine-level checks like unusedignore, whose verdicts depend on
// what the other analyzers suppressed.
func RunAnalyzers(t *testing.T, testdata string, as []*lint.Analyzer, patterns ...string) {
	t.Helper()
	loader := lint.NewLoader(testdata+"/src", "")
	all, err := loader.Discover()
	if err != nil {
		t.Fatalf("discover fixtures: %v", err)
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		matched := false
		for _, path := range all {
			if path == pat || (strings.HasSuffix(pat, "/...") &&
				(path == strings.TrimSuffix(pat, "/...") || strings.HasPrefix(path, strings.TrimSuffix(pat, "...")))) {
				pkg, err := loader.Load(path)
				if err != nil {
					t.Fatalf("load fixture %s: %v", path, err)
				}
				pkgs = append(pkgs, pkg)
				matched = true
			}
		}
		if !matched {
			t.Fatalf("pattern %q matched no fixture package under %s/src", pat, testdata)
		}
	}

	runner := &lint.Runner{Analyzers: as}
	res, err := runner.Run(pkgs)
	if err != nil {
		t.Fatalf("run %s: %v", as[0].Name, err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			wants = append(wants, collectWants(t, pkg, f)...)
		}
	}

	for _, d := range res.Diagnostics {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func collectWants(t *testing.T, pkg *lint.Package, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				// A //lint:ignore directive occupies the whole comment, so a
				// fixture asserting a diagnostic *about the directive itself*
				// (unusedignore) embeds the want at the end of the directive
				// text: //lint:ignore a reason // want "regexp".
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				text = text[i+len("// "):]
			}
			pos := pkg.Fset.Position(c.Pos())
			ms := wantRe.FindAllStringSubmatch(text[len("want "):], -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: m[1]})
			}
		}
	}
	return out
}

// ModuleRoot returns the root directory and module path of the module
// enclosing the test's working directory. Integration tests use it to run
// the engine over the real repository.
func ModuleRoot(t *testing.T) (root, modPath string) {
	t.Helper()
	root, modPath, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return root, modPath
}

// CopyModuleGoFiles mirrors the module's buildable tree (every .go file
// outside hidden, underscore, vendor and testdata directories) into dst, so
// a test can seed mutations into a throwaway copy of the real repository
// without touching the checkout.
func CopyModuleGoFiles(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if p != src && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatalf("copy module tree: %v", err)
	}
}

// Fprint is a tiny helper for debugging fixture runs from tests.
func Fprint(diags []lint.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&sb, d)
	}
	return sb.String()
}
