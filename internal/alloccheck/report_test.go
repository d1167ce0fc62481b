package alloccheck_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
)

// TestReportKeepsEveryFinding pins the conversion gpowerlint reports the
// proof through: every finding of an unproven root becomes exactly one
// alloccheck diagnostic at its site, naming the root and every hop of its
// propagation chain, and every directive error survives as an error. The
// diagnostics and errors then fold into a lint.Result in canonical order.
func TestReportKeepsEveryFinding(t *testing.T) {
	findings, dirErrs := 0, 0
	for _, fixture := range []string{"taxonomy", "interproc", "direrr"} {
		res := runFixture(t, fixture)
		diags, errs := res.Report("")

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
		for k, d := range diags {
			if !used[k] {
				t.Errorf("%s: diagnostic with no finding behind it: %v", fixture, d)
			}
		}

		if len(errs) != len(res.DirectiveErrors) {
			t.Errorf("%s: %d directive errors reported, want %d", fixture, len(errs), len(res.DirectiveErrors))
		}
		for k := 0; k < len(errs) && k < len(res.DirectiveErrors); k++ {
			dirErrs++
			if errs[k].Error() != res.DirectiveErrors[k] {
				t.Errorf("%s: directive error %q reported as %q", fixture, res.DirectiveErrors[k], errs[k])
			}
		}

		var lr lint.Result
		lr.Add(diags, errs)
		if len(lr.Diagnostics) != len(diags) || len(lr.DirectiveErrors) != len(errs) {
			t.Errorf("%s: lint.Result.Add kept %d diagnostics and %d errors, want %d and %d",
				fixture, len(lr.Diagnostics), len(lr.DirectiveErrors), len(diags), len(errs))
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
