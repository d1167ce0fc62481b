package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

var knownAnalyzers = map[string]bool{
	"maporder": true, "floateq": true, "ctxflow": true, "gonosync": true,
}

func parseIgnoresFrom(t *testing.T, src string) (*token.FileSet, []Ignore, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	igs, errs := ParseIgnores(fset, f, knownAnalyzers)
	return fset, igs, errs
}

func TestParseIgnoresTrailingAndStandalone(t *testing.T) {
	src := `package p

func f(a, b float64) bool {
	return a == b //lint:ignore floateq bitwise tie-break keeps the search reproducible
}

func g(a, b float64) bool {
	//lint:ignore floateq,maporder shared guard across two invariants
	return a != b
}
`
	_, igs, errs := parseIgnoresFrom(t, src)
	if len(errs) != 0 {
		t.Fatalf("unexpected directive errors: %v", errs)
	}
	if len(igs) != 2 {
		t.Fatalf("want 2 directives, got %d: %+v", len(igs), igs)
	}

	// Trailing form: suppresses its own line (4) and the next.
	d := igs[0]
	if d.Pos.Line != 4 {
		t.Errorf("first directive on line %d, want 4", d.Pos.Line)
	}
	if got := d.Reason; got != "bitwise tie-break keeps the search reproducible" {
		t.Errorf("reason = %q", got)
	}
	for line, want := range map[int]bool{3: false, 4: true, 5: true, 6: false} {
		pos := token.Position{Filename: "fix.go", Line: line}
		if d.Matches("floateq", pos) != want {
			t.Errorf("line %d: Matches(floateq) = %v, want %v", line, !want, want)
		}
	}
	if d.Matches("maporder", token.Position{Filename: "fix.go", Line: 4}) {
		t.Error("directive for floateq must not match maporder")
	}
	if d.Matches("floateq", token.Position{Filename: "other.go", Line: 4}) {
		t.Error("directive must not match a different file")
	}

	// Standalone multi-analyzer form: line 8, suppresses line 9 for both names.
	d2 := igs[1]
	if d2.Pos.Line != 8 {
		t.Errorf("second directive on line %d, want 8", d2.Pos.Line)
	}
	for _, name := range []string{"floateq", "maporder"} {
		if !d2.Matches(name, token.Position{Filename: "fix.go", Line: 9}) {
			t.Errorf("comma-separated directive does not match %s on the following line", name)
		}
	}
	if d2.Matches("ctxflow", token.Position{Filename: "fix.go", Line: 9}) {
		t.Error("comma-separated directive must not match an unlisted analyzer")
	}
}

func TestParseIgnoresRejectsUnknownAnalyzer(t *testing.T) {
	src := `package p

//lint:ignore nosuchcheck because reasons
var X = 1
`
	_, igs, errs := parseIgnoresFrom(t, src)
	if len(igs) != 0 {
		t.Fatalf("unknown-analyzer directive was accepted: %+v", igs)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].String(), `unknown analyzer "nosuchcheck"`) {
		t.Fatalf("want one unknown-analyzer error, got %v", errs)
	}
	if !strings.Contains(errs[0].String(), "fix.go:3:") {
		t.Errorf("error does not carry the directive position: %v", errs[0])
	}
}

func TestParseIgnoresRequiresReason(t *testing.T) {
	for _, src := range []string{
		"package p\n\n//lint:ignore floateq\nvar X = 1\n",
		"package p\n\n//lint:ignore\nvar X = 1\n",
	} {
		_, igs, errs := parseIgnoresFrom(t, src)
		if len(igs) != 0 {
			t.Fatalf("reasonless directive was accepted: %+v", igs)
		}
		if len(errs) != 1 {
			t.Fatalf("want one error for %q, got %v", src, errs)
		}
	}
	_, _, errs := parseIgnoresFrom(t, "package p\n\n//lint:ignore floateq\nvar X = 1\n")
	if !strings.Contains(errs[0].String(), "missing the mandatory reason") {
		t.Errorf("want mandatory-reason error, got %v", errs[0])
	}
}

func TestParseIgnoresSkipsLookalikes(t *testing.T) {
	src := `package p

//lint:ignoreXYZ floateq not a directive at all
// lint:ignore floateq leading space means a plain comment
var X = 1
`
	_, igs, errs := parseIgnoresFrom(t, src)
	if len(igs) != 0 || len(errs) != 0 {
		t.Fatalf("lookalike comments misparsed: igs=%v errs=%v", igs, errs)
	}
}
