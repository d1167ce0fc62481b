package alloccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"gpupower/internal/lint"
)

// The two alloccheck directives mirror the //lint:ignore discipline
// (internal/lint/ignore.go): mandatory reasons, tight line scoping, and a
// hard error for suppressions that stop suppressing anything.
const (
	// noallocPrefix marks a function as an allocation-freedom root: the
	// checker walks its whole call graph and proves no reachable
	// statement can allocate. It must appear in the function's doc
	// comment; an optional free-text note may follow.
	noallocPrefix = "//gpower:noalloc"
	// allocsPrefix is the call-site escape hatch. It suppresses every
	// allocation site on its own line (trailing form) or on the line
	// immediately below (standalone form), and the reason is mandatory.
	allocsPrefix = "//gpower:allocs"
)

// hatch is one parsed //gpower:allocs directive.
type hatch struct {
	reason string
	pos    token.Position
}

// covers reports whether the hatch suppresses a site at pos: same file,
// same line or the line immediately below the directive.
func (h *hatch) covers(pos token.Position) bool {
	return pos.Filename == h.pos.Filename && (pos.Line == h.pos.Line || pos.Line == h.pos.Line+1)
}

// directives holds every parsed annotation of one package plus the parse
// problems that make a run fail regardless of findings.
type directives struct {
	hatches []*hatch
	bad     []lint.Diagnostic
}

// hasDirective reports whether a comment is the given alloccheck directive
// (exact match or followed by whitespace — //gpower:noallocXYZ is not ours).
func hasDirective(text, prefix string) bool {
	if !strings.HasPrefix(text, prefix) {
		return false
	}
	rest := strings.TrimPrefix(text, prefix)
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// isNoallocRoot reports whether a function declaration carries the
// //gpower:noalloc directive in its doc comment.
func isNoallocRoot(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if hasDirective(c.Text, noallocPrefix) {
			return true
		}
	}
	return false
}

// parseDirectives extracts the alloccheck directives of one package. A
// //gpower:allocs without a reason is an error; a //gpower:noalloc outside a
// function doc comment is an error (it would silently guard nothing).
func parseDirectives(pkg *lint.Package) directives {
	// Positions of comments that belong to some function's doc group,
	// so stray noalloc directives can be told apart from real roots.
	docComments := make(map[token.Pos]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docComments[c.Pos()] = true
			}
		}
	}

	var ds directives
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case hasDirective(c.Text, allocsPrefix):
					reason := strings.TrimSpace(strings.TrimPrefix(c.Text, allocsPrefix))
					if reason == "" {
						ds.bad = append(ds.bad, badDirective(pos, "%s is missing the mandatory reason", allocsPrefix))
						continue
					}
					ds.hatches = append(ds.hatches, &hatch{reason: reason, pos: pos})
				case hasDirective(c.Text, noallocPrefix):
					if !docComments[c.Pos()] {
						ds.bad = append(ds.bad, badDirective(pos,
							"misplaced %s: the directive must be part of a function's doc comment", noallocPrefix))
					}
				}
			}
		}
	}
	return ds
}

// badDirective is the alloccheck diagnostic for a malformed, misplaced or
// dead directive at pos.
func badDirective(pos token.Position, format string, args ...any) lint.Diagnostic {
	return lint.Diagnostic{Analyzer: Name, Pos: pos, Message: fmt.Sprintf(format, args...)}
}
