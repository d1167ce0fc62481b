package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive suppresses matching diagnostics on its own line (trailing
// comment form) and on the line immediately below it (standalone form). The
// reason is mandatory.
const ignorePrefix = "//lint:ignore"

// Ignore is one parsed suppression directive.
type Ignore struct {
	// Analyzers are the analyzer names the directive applies to.
	Analyzers []string
	// Reason is the mandatory free-text justification.
	Reason string
	// Pos is the directive's own position.
	Pos token.Position
}

// Matches reports whether the directive suppresses a diagnostic from the
// named analyzer at the given position.
func (ig *Ignore) Matches(analyzer string, pos token.Position) bool {
	if pos.Filename != ig.Pos.Filename {
		return false
	}
	if pos.Line != ig.Pos.Line && pos.Line != ig.Pos.Line+1 {
		return false
	}
	for _, a := range ig.Analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// IgnoreDirectiveName is the analyzer name carried by the diagnostics for
// malformed //lint:ignore directives. No analyzer runs under it, so no
// directive can name it, and the Runner reports these diagnostics after
// suppression: a broken suppression cannot suppress its own report.
const IgnoreDirectiveName = "lintignore"

// ParseIgnores extracts every //lint:ignore directive from a file. known maps
// valid analyzer names; a directive naming an unknown analyzer, or missing
// its analyzer list or reason, is returned as a diagnostic at the directive —
// silently-dead suppressions are worse than none.
func ParseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool) ([]Ignore, []Diagnostic) {
	var igs []Ignore
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				// e.g. //lint:ignoreXYZ — not our directive.
				continue
			}
			ig, err := parseIgnoreBody(strings.TrimSpace(rest), known)
			if err != nil {
				bad = append(bad, Diagnostic{Analyzer: IgnoreDirectiveName, Pos: pos, Message: err.Error()})
				continue
			}
			ig.Pos = pos
			igs = append(igs, ig)
		}
	}
	return igs, bad
}

func parseIgnoreBody(body string, known map[string]bool) (Ignore, error) {
	if body == "" {
		return Ignore{}, fmt.Errorf("malformed directive: want %q", ignorePrefix+" <analyzer> <reason>")
	}
	fields := strings.Fields(body)
	names := strings.Split(fields[0], ",")
	for _, n := range names {
		if n == "" {
			return Ignore{}, fmt.Errorf("malformed directive: empty analyzer name in %q", fields[0])
		}
		if known != nil && !known[n] {
			return Ignore{}, fmt.Errorf("directive names unknown analyzer %q", n)
		}
	}
	if len(fields) < 2 {
		return Ignore{}, fmt.Errorf("directive for %q is missing the mandatory reason", fields[0])
	}
	return Ignore{Analyzers: names, Reason: strings.Join(fields[1:], " ")}, nil
}
