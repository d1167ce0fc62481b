package alloccheck_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
	"gpupower/internal/lint/analyzers"
)

// TestReportKeepsEveryFinding pins the conversion gpowerlint reports the
// proof through: every finding of an unproven root becomes exactly one
// alloccheck diagnostic at its site, naming the root and every hop of its
// propagation chain, and every bad directive survives as its diagnostic.
// The diagnostics then fold into a lint.Result in canonical order.
func TestReportKeepsEveryFinding(t *testing.T) {
	findings, dirErrs := 0, 0
	for _, fixture := range []string{"taxonomy", "interproc", "direrr"} {
		res := runFixture(t, fixture)
		diags := res.Report("")

		used := make([]bool, len(diags))
		for i := range res.Roots {
			rr := &res.Roots[i]
			for j := range rr.Findings {
				s := &rr.Findings[j]
				findings++
				want := []string{rr.Func, fmt.Sprintf("[%s] %s", s.Cat, s.Msg)}
				for u := s.Underlying; u != nil; u = u.Underlying {
					want = append(want, fmt.Sprintf("%s:%d:%d: [%s] %s", u.Pos.Filename, u.Pos.Line, u.Pos.Column, u.Cat, u.Msg))
				}
				k := matchDiag(diags, used, s, want)
				if k < 0 {
					t.Errorf("%s: finding of %s at %v dropped: no diagnostic carries %q", fixture, rr.Func, s.Pos, want)
					continue
				}
				used[k] = true
			}
		}
		for _, bd := range res.BadDirectives {
			dirErrs++
			k := 0
			for k < len(diags) && (used[k] || diags[k] != bd) {
				k++
			}
			if k == len(diags) {
				t.Errorf("%s: bad directive %v dropped", fixture, bd)
				continue
			}
			used[k] = true
		}
		for k, d := range diags {
			if !used[k] {
				t.Errorf("%s: diagnostic with no finding or directive behind it: %v", fixture, d)
			}
		}

		var lr lint.Result
		lr.Add(diags)
		if len(lr.Diagnostics) != len(diags) {
			t.Errorf("%s: lint.Result.Add kept %d diagnostics, want %d", fixture, len(lr.Diagnostics), len(diags))
		}
		if !sort.SliceIsSorted(lr.Diagnostics, func(i, j int) bool {
			a, b := lr.Diagnostics[i].Pos, lr.Diagnostics[j].Pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Column < b.Column
		}) {
			t.Errorf("%s: lint.Result.Add left the diagnostics out of position order", fixture)
		}
	}
	if findings < 20 || dirErrs < 4 {
		t.Fatalf("fixtures yielded %d findings and %d directive errors; the conversion went untested", findings, dirErrs)
	}
}

// TestDirectiveProblemsInJSON runs the gate the way gpowerlint does — the
// analyzers, then the proof folded into the same result — over a module
// with one unknown-analyzer //lint:ignore and one reasonless
// //gpower:allocs, and requires both in the -json report, at their lines,
// with paths relative to the module root.
func TestDirectiveProblemsInJSON(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package p

//lint:ignore nosuchanalyzer this directive names an unknown analyzer
func Broken() {}

func Grow(n int) []int {
	return make([]int, n) //gpower:allocs
}
`
	if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader(root, "example.com/m").LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&lint.Runner{Analyzers: analyzers.All(), Known: analyzers.KnownNames()}).Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	res.Add(alloccheck.NewChecker(pkgs).Check().Report(root))
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, root, res.Diagnostics); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Analyzer, File, Message string
		Line                    int
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		analyzer, message string
		line              int
	}{
		{lint.IgnoreDirectiveName, `unknown analyzer "nosuchanalyzer"`, 3},
		{alloccheck.Name, "//gpower:allocs is missing the mandatory reason", 7},
	} {
		found := false
		for _, d := range got {
			found = found || (d.Analyzer == want.analyzer && d.File == filepath.Join("p", "p.go") &&
				d.Line == want.line && strings.Contains(d.Message, want.message))
		}
		if !found {
			t.Errorf("-json report lacks the %s diagnostic at p/p.go:%d (%q):\n%s", want.analyzer, want.line, want.message, buf.Bytes())
		}
	}
}

// matchDiag returns the index of an unused alloccheck diagnostic at s's
// position whose message contains every string of want, or -1.
func matchDiag(diags []lint.Diagnostic, used []bool, s *alloccheck.Site, want []string) int {
next:
	for k, d := range diags {
		if used[k] || d.Analyzer != alloccheck.Name || d.Pos != s.Pos {
			continue
		}
		for _, w := range want {
			if !strings.Contains(d.Message, w) {
				continue next
			}
		}
		return k
	}
	return -1
}
