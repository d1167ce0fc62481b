package analyzers_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpupower/internal/lint"
	"gpupower/internal/lint/analyzers"
	"gpupower/internal/lint/linttest"
)

// runModule loads and analyzes a module tree with the full registry.
func runModule(t *testing.T, root, modPath string) *lint.Result {
	t.Helper()
	loader := lint.NewLoader(root, modPath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	runner := &lint.Runner{Analyzers: analyzers.All(), Known: analyzers.KnownNames()}
	res, err := runner.Run(pkgs)
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	return res
}

// seededMutation is a file of deliberately planted violations written into a
// throwaway copy of the real repository, expressed against the real
// internal/hw and internal/silicon APIs rather than fixture stand-ins.
const seededMutation = `// Package zzseeded holds deliberately planted invariant violations for the
// analyzer smoke test. It never exists in the real tree.
package zzseeded

import (
	"gpupower/internal/hw"
	"gpupower/internal/silicon"
)

// swappedAnchor feeds a core frequency into a voltage anchor — the silent
// wrong-by-orders-of-magnitude unit swap unitflow exists to catch.
func swappedAnchor(cfg hw.Config) silicon.VoltagePoint {
	return silicon.VoltagePoint{FMHz: 1000, Volts: cfg.CoreMHz}
}
`

// seededDetachedHandler is planted inside the copied internal/serve package:
// a handler that mints its own context instead of threading r.Context(), so
// a client that goes away no longer cancels its work.
const seededDetachedHandler = `package serve

import (
	"context"
	"net/http"
)

// zzHandleDetached deliberately drops the request context. Smoke-test plant
// only.
func zzHandleDetached(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	_ = ctx
	w.WriteHeader(http.StatusOK)
}
`

// TestSeededMutationsCaught is the end-to-end smoke check promised by the
// analyzer suite: the real repository is clean under the full registry, and
// planting the classic violations into a copy of it — an MHz-into-volts
// flow, and a request handler inside the real serve package that mints
// context.Background() — produces exactly the expected diagnostics, each
// pinned to its plant.
func TestSeededMutationsCaught(t *testing.T) {
	src, modPath := linttest.ModuleRoot(t)
	copyDir := t.TempDir()
	linttest.CopyModuleGoFiles(t, src, copyDir)

	clean := runModule(t, copyDir, modPath)
	if len(clean.Diagnostics) != 0 {
		t.Fatalf("repository copy is not clean before mutation:\n%s", linttest.Fprint(clean.Diagnostics))
	}

	mutDir := filepath.Join(copyDir, "internal", "zzseeded")
	if err := os.MkdirAll(mutDir, 0o755); err != nil {
		t.Fatal(err)
	}
	plants := map[string]string{
		filepath.Join(mutDir, "seeded.go"):                         seededMutation,
		filepath.Join(copyDir, "internal", "serve", "zzseeded.go"): seededDetachedHandler,
	}
	for path, content := range plants {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mutated := runModule(t, copyDir, modPath)
	wants := []struct {
		analyzer string
		fragment string
		file     string
	}{
		{"unitflow", `MHz-typed value assigned to volts-typed field "Volts"`, filepath.Join("zzseeded", "seeded.go")},
		{"ctxflow", `context.Background in library code`, filepath.Join("serve", "zzseeded.go")},
	}
	for _, want := range wants {
		found := false
		for _, d := range mutated.Diagnostics {
			if d.Analyzer == want.analyzer && strings.Contains(d.Message, want.fragment) &&
				strings.HasSuffix(d.Pos.Filename, want.file) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("seeded %s mutation (%s) not caught; report:\n%s",
				want.analyzer, want.fragment, linttest.Fprint(mutated.Diagnostics))
		}
	}
	for _, d := range mutated.Diagnostics {
		if !strings.Contains(d.Pos.Filename, "zzseeded") {
			t.Errorf("mutation leaked a diagnostic outside the seeded files: %s", d)
		}
	}
}
