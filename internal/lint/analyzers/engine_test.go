package analyzers_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gpupower/internal/lint"
)

// writeTree materializes a synthetic module: map of root-relative path to
// file content.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// manyPackageTree synthesizes a module with n sibling packages, each
// carrying one floateq finding, one suppressed finding and a stdlib import,
// so a slip in the report's order or in the suppression count would show.
func manyPackageTree(n int) map[string]string {
	tree := make(map[string]string, n)
	for i := 0; i < n; i++ {
		tree[fmt.Sprintf("p%02d/p.go", i)] = fmt.Sprintf(`package p%02d

import "math"

// Eq is this package's deliberate floateq finding.
func Eq(x, y float64) bool { return x == y }

// Near is the suppressed twin, so the Suppressed count is checked too.
func Near(x, y float64) bool {
	return math.Abs(x-y) == 0 //lint:ignore floateq runner test: suppression must merge deterministically
}
`, i)
	}
	return tree
}

// renderText renders a report exactly as gpowerlint would.
func renderText(t *testing.T, res *lint.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lint.WriteText(&buf, "", res.Diagnostics); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelOutputByteIdenticalToSerial pins that the linter's report does
// not depend on the cores the process has: over twelve packages, the report
// at GOMAXPROCS 4 must render to the same bytes, with the same suppression
// count, as at GOMAXPROCS 1, where internal/parallel's pool degenerates to
// its inline serial path. The engine is single-goroutine, so this guards
// against a fan-out coming back whose merge order leaks scheduling into the
// report.
func TestParallelOutputByteIdenticalToSerial(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, manyPackageTree(12))
	run := func(procs int) (*lint.Result, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res := runModule(t, root, "example.com/m")
		return res, renderText(t, res)
	}
	serial, serialText := run(1)
	par, parText := run(4)
	if len(serial.Diagnostics) != 12 || serial.Suppressed != 12 {
		t.Fatalf("GOMAXPROCS=1: %d diagnostics, %d suppressed; want 12 of each\n%s",
			len(serial.Diagnostics), serial.Suppressed, serialText)
	}
	if !bytes.Equal(parText, serialText) {
		t.Errorf("report differs\nGOMAXPROCS=4:\n%s\nGOMAXPROCS=1:\n%s", parText, serialText)
	}
	if par.Suppressed != serial.Suppressed {
		t.Errorf("suppressed: %d at GOMAXPROCS=4, %d at GOMAXPROCS=1", par.Suppressed, serial.Suppressed)
	}
}

// TestMalformedDirectiveFailsRun: a //lint:ignore naming an unknown
// analyzer, or giving no reason, is a lintignore diagnostic at the
// directive, which fails the run (gpowerlint exits 1); it suppresses
// nothing, and the other packages' findings are still reported.
func TestMalformedDirectiveFailsRun(t *testing.T) {
	root := t.TempDir()
	tree := manyPackageTree(1)
	tree["c/c.go"] = `package c

//lint:ignore nosuchanalyzer this directive names an unknown analyzer
func Broken() {}

// Eq's directive has no reason, so its finding stands.
func Eq(x, y float64) bool {
	return x == y //lint:ignore floateq
}
`
	writeTree(t, root, tree)
	res := runModule(t, root, "example.com/m")
	var directives, findings []lint.Diagnostic
	for _, d := range res.Diagnostics {
		if d.Analyzer == lint.IgnoreDirectiveName {
			directives = append(directives, d)
		} else {
			findings = append(findings, d)
		}
	}
	if len(directives) != 2 {
		t.Fatalf("directive diagnostics: %v, want 2", directives)
	}
	for i, want := range []string{"unknown analyzer", "missing the mandatory reason"} {
		if !strings.Contains(directives[i].Message, want) {
			t.Errorf("directive diagnostic %d = %v, want it to mention %q", i, directives[i], want)
		}
	}
	if len(findings) != 2 || res.Suppressed != 1 {
		t.Fatalf("%d findings, %d suppressed; want 2 and 1\n%s", len(findings), res.Suppressed, renderText(t, res))
	}
}
