package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// jsonDiagnostic is the stable machine-readable shape emitted by -json.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// WriteText prints diagnostics one per line as file:line:col: analyzer:
// message, with file paths relative to base when possible.
func WriteText(w io.Writer, base string, diags []Diagnostic) error {
	for _, d := range diags {
		name := RelPath(base, d.Pos.Filename)
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the diagnostics as a JSON array (empty slice, not null,
// when clean — consumers can always range over the result).
func WriteJSON(w io.Writer, base string, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     RelPath(base, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RelPath returns name relative to base when that is shorter, and name
// itself otherwise.
func RelPath(base, name string) string {
	if base == "" {
		return name
	}
	rel, err := filepath.Rel(base, name)
	if err != nil || len(rel) >= len(name) {
		return name
	}
	return rel
}
