package alloccheck

import (
	"fmt"

	"gpupower/internal/lint"
)

// Name is the analyzer name proof findings carry in gpowerlint's reports.
const Name = "alloccheck"

// Doc describes the proof in `gpowerlint -list`.
const Doc = `every //gpower:noalloc function is proven allocation-free over its whole
static call graph, with unresolvable calls assumed to allocate; a finding
names the site and its propagation chain down to the direct allocation.
//gpower:allocs <reason> is the only escape hatch (//lint:ignore does not
reach the proof), and a reasonless, dead or misplaced directive is an
error. Runs on every gpowerlint run, whatever -analyzers selects.`

// Report converts a proof run into gpowerlint's currency: one diagnostic
// named alloccheck per finding of an unproven root, at the finding's site,
// followed by the bad directives. A finding's message follows a
// call-shaped site hop by hop down to the direct allocation that seeds it,
// with the hops' paths relative to base.
func (r *Result) Report(base string) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for i := range r.Roots {
		rr := &r.Roots[i]
		for j := range rr.Findings {
			s := &rr.Findings[j]
			msg := fmt.Sprintf("root %s is not proven allocation-free: [%s] %s", rr.Func, s.Cat, s.Msg)
			for u, depth := s.Underlying, 0; u != nil && depth < 8; u, depth = u.Underlying, depth+1 {
				msg += fmt.Sprintf(" <- %s:%d:%d: [%s] %s", lint.RelPath(base, u.Pos.Filename), u.Pos.Line, u.Pos.Column, u.Cat, u.Msg)
			}
			diags = append(diags, lint.Diagnostic{Analyzer: Name, Pos: s.Pos, Message: msg})
		}
	}
	return append(diags, r.BadDirectives...)
}
