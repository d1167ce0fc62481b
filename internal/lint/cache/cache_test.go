package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gpupower/internal/lint"
	"gpupower/internal/lint/analyzers"
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

// newRunner builds the full-registry runner the CLI uses.
func newRunner() *lint.Runner {
	return &lint.Runner{Analyzers: analyzers.All(), Known: analyzers.KnownNames()}
}

// diagStrings flattens a result for order-sensitive comparison.
func diagStrings(res *lint.Result) []string {
	var out []string
	for _, d := range res.Diagnostics {
		out = append(out, fmt.Sprintf("%s:%d:%d %s %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	return out
}

func sameDiags(t *testing.T, label string, got, want *lint.Result) {
	t.Helper()
	g, w := diagStrings(got), diagStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d diagnostics, want %d\ngot:  %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: diagnostic %d differs\ngot:  %s\nwant: %s", label, i, g[i], w[i])
		}
	}
	if got.Suppressed != want.Suppressed {
		t.Errorf("%s: suppressed=%d, want %d", label, got.Suppressed, want.Suppressed)
	}
}

// twoPackageTree is a module where pkg b imports pkg a, a has a real floateq
// finding plus a suppressed one, so both diagnostics and suppression counts
// must round-trip through the cache.
func twoPackageTree() map[string]string {
	return map[string]string{
		"a/a.go": `package a

// Eq is a deliberate floateq violation so the cache has a diagnostic to
// round-trip.
func Eq(x, y float64) bool { return x == y }

// Hidden is the suppressed twin: Suppressed must round-trip too.
func Hidden(x, y float64) bool {
	return x == y //lint:ignore floateq cache test: exercising suppression round-trip
}

// Scale feeds b.
func Scale(x float64) float64 { return 2 * x }
`,
		"b/b.go": `package b

import "example.com/m/a"

// Use depends on a: editing a must invalidate b's cache entry.
func Use(x float64) float64 { return a.Scale(x) + 1 }
`,
	}
}

func runCached(t *testing.T, root, facts string) (*lint.Result, *Stats, *lint.Loader) {
	t.Helper()
	loader := lint.NewLoader(root, "example.com/m")
	res, stats, err := Run(loader, newRunner(), facts)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats, loader
}

// TestColdWarmAndContentInvalidation is the cache's core contract: a cold
// run misses everything, a warm run over an unchanged tree hits everything
// without type-checking a single package, editing a leaf package re-analyzes
// only that group, and editing a dependency re-analyzes its importers too.
func TestColdWarmAndContentInvalidation(t *testing.T) {
	root, facts := t.TempDir(), t.TempDir()
	writeTree(t, root, twoPackageTree())

	cold, stats, _ := runCached(t, root, facts)
	if stats.Hits != 0 || stats.Misses != 2 {
		t.Fatalf("cold run: %+v, want 0 hits / 2 misses", *stats)
	}
	if len(cold.Diagnostics) != 1 || cold.Diagnostics[0].Analyzer != "floateq" {
		t.Fatalf("cold run diagnostics: %v", diagStrings(cold))
	}
	if cold.Suppressed != 1 {
		t.Fatalf("cold run suppressed=%d, want 1", cold.Suppressed)
	}

	warm, stats, loader := runCached(t, root, facts)
	if stats.Hits != 2 || stats.Misses != 0 {
		t.Fatalf("warm run: %+v, want 2 hits / 0 misses", *stats)
	}
	if checked := loader.TypeCheckedPaths(); len(checked) != 0 {
		t.Fatalf("warm run type-checked %v; the incremental engine must not load unchanged packages", checked)
	}
	sameDiags(t, "warm vs cold", warm, cold)

	// Edit the leaf importer b: only b's group re-runs.
	writeTree(t, root, map[string]string{"b/b.go": `package b

import "example.com/m/a"

// Use gained a constant: content change, same findings (none).
func Use(x float64) float64 { return a.Scale(x) + 2 }
`})
	after, stats, _ := runCached(t, root, facts)
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("after editing b: %+v, want 1 hit / 1 miss", *stats)
	}
	sameDiags(t, "after editing b", after, cold)

	// Edit dependency a: both a and its importer b must re-run.
	writeTree(t, root, map[string]string{"a/a.go": strings.Replace(
		twoPackageTree()["a/a.go"], "2 * x", "3 * x", 1)})
	after, stats, _ = runCached(t, root, facts)
	if stats.Hits != 0 || stats.Misses != 2 {
		t.Fatalf("after editing a: %+v, want 0 hits / 2 misses (dep invalidation)", *stats)
	}
	sameDiags(t, "after editing a", after, cold)
}

// manyGroupTree synthesizes a module with n sibling packages, each carrying
// one floateq finding, one suppressed finding and a stdlib import, so a
// slip in the order groups merge in would show in the report.
func manyGroupTree(n int) map[string]string {
	tree := make(map[string]string, n)
	for i := 0; i < n; i++ {
		tree[fmt.Sprintf("p%02d/p.go", i)] = fmt.Sprintf(`package p%02d

import "math"

// Eq is this group's deliberate floateq finding.
func Eq(x, y float64) bool { return x == y }

// Near is the suppressed twin, so Suppressed counts must merge too.
func Near(x, y float64) bool {
	return math.Abs(x-y) == 0 //lint:ignore floateq cache test: suppression must merge deterministically
}
`, i)
	}
	return tree
}

// renderText renders a result exactly as the CLI would, so comparisons are
// over the bytes a user sees, not a lossy summary.
func renderText(t *testing.T, res *lint.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lint.WriteText(&buf, "", res.Diagnostics); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// plainColdWarm lints the module at root three ways — the plain engine,
// then the cached engine cold and warm over a fresh facts directory — after
// checking the fixture's diagnostic count and the cache's miss/hit counts.
func plainColdWarm(t *testing.T, label, root string, groups, diags int) (plain, cold, warm *lint.Result) {
	t.Helper()
	pkgs, err := lint.NewLoader(root, "example.com/m").LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	plain, err = newRunner().Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plain.Diagnostics); got != diags {
		t.Fatalf("%s: fixture produced %d diagnostics, want %d", label, got, diags)
	}

	facts := t.TempDir()
	cold, stats, _ := runCached(t, root, facts)
	if stats.Misses != groups || stats.Hits != 0 {
		t.Fatalf("%s: cold cached run: %+v, want %d misses", label, *stats, groups)
	}
	warm, stats, _ = runCached(t, root, facts)
	if stats.Hits != groups || stats.Misses != 0 || stats.Corrupt != 0 {
		t.Fatalf("%s: warm cached run: %+v, want %d hits", label, *stats, groups)
	}
	return plain, cold, warm
}

// sameReport fails unless got renders to the same bytes as want and carries
// the same suppression count.
func sameReport(t *testing.T, label string, got, want *lint.Result) {
	t.Helper()
	if g, w := renderText(t, got), renderText(t, want); !bytes.Equal(g, w) {
		t.Errorf("%s: report differs\ngot:\n%s\nwant:\n%s", label, g, w)
	}
	if got.Suppressed != want.Suppressed {
		t.Errorf("%s: suppressed=%d, want %d", label, got.Suppressed, want.Suppressed)
	}
}

// TestCacheMatchesUncachedRun pins byte-identical reports: the cached engine
// and the plain engine must render the same report, with the same
// suppression count, on an unchanged tree, both cold and warm.
func TestCacheMatchesUncachedRun(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tree          map[string]string
		groups, diags int
	}{
		{"two packages", twoPackageTree(), 2, 1},
		{"twelve groups", manyGroupTree(12), 12, 12},
	} {
		root := t.TempDir()
		writeTree(t, root, tc.tree)
		plain, cold, warm := plainColdWarm(t, tc.name, root, tc.groups, tc.diags)
		sameReport(t, tc.name+": cold cached vs plain", cold, plain)
		sameReport(t, tc.name+": warm cached vs plain", warm, plain)
	}
}

// TestParallelOutputByteIdenticalToSerial pins that the linter's report does
// not depend on the cores the process has: the plain, cold-cached and
// warm-cached reports over the twelve-group tree at GOMAXPROCS 4 must be
// byte-identical to those at GOMAXPROCS 1, where internal/parallel's pool
// degenerates to its inline serial path. The engine is single-goroutine, so
// this guards against a fan-out coming back whose merge order leaks
// scheduling into the report.
func TestParallelOutputByteIdenticalToSerial(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, manyGroupTree(12))
	run := func(procs int) (plain, cold, warm *lint.Result) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return plainColdWarm(t, fmt.Sprintf("GOMAXPROCS=%d", procs), root, 12, 12)
	}
	serialPlain, serialCold, serialWarm := run(1)
	parPlain, parCold, parWarm := run(4)
	sameReport(t, "plain Runner.Run, GOMAXPROCS 4 vs 1", parPlain, serialPlain)
	sameReport(t, "cache.Run cold, GOMAXPROCS 4 vs 1", parCold, serialCold)
	sameReport(t, "cache.Run warm, GOMAXPROCS 4 vs 1", parWarm, serialWarm)
}

// TestCorruptEntryRecovery truncates one entry on disk: the run must treat
// it as a miss, repair it, and still produce the full report.
func TestCorruptEntryRecovery(t *testing.T) {
	root, facts := t.TempDir(), t.TempDir()
	writeTree(t, root, twoPackageTree())
	cold, _, _ := runCached(t, root, facts)

	entries, err := filepath.Glob(filepath.Join(facts, "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("expected 2 cache entries, got %v (%v)", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{ truncated garbag"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, stats, _ := runCached(t, root, facts)
	if stats.Corrupt != 1 || stats.Misses != 1 || stats.Hits != 1 {
		t.Fatalf("corrupt recovery run: %+v, want 1 corrupt / 1 miss / 1 hit", *stats)
	}
	sameDiags(t, "after corruption", res, cold)

	// The repaired entry must serve the next run.
	_, stats, _ = runCached(t, root, facts)
	if stats.Hits != 2 || stats.Corrupt != 0 {
		t.Fatalf("post-repair run: %+v, want 2 hits", *stats)
	}
}

// TestDirectiveErrorGroupsNeverCached: a malformed //lint:ignore must fail
// every run, so its group is re-analyzed each time rather than replayed.
func TestDirectiveErrorGroupsNeverCached(t *testing.T) {
	root, facts := t.TempDir(), t.TempDir()
	tree := twoPackageTree()
	tree["c/c.go"] = `package c

//lint:ignore nosuchanalyzer this directive names an unknown analyzer
func Broken() {}
`
	writeTree(t, root, tree)

	res, stats, _ := runCached(t, root, facts)
	if len(res.DirectiveErrors) != 1 {
		t.Fatalf("directive errors: %v, want 1", res.DirectiveErrors)
	}
	if stats.Misses != 3 {
		t.Fatalf("cold run: %+v, want 3 misses", *stats)
	}
	res, stats, _ = runCached(t, root, facts)
	if len(res.DirectiveErrors) != 1 {
		t.Fatalf("warm run lost the directive error: %v", res.DirectiveErrors)
	}
	if stats.Hits != 2 || stats.Misses != 1 {
		t.Fatalf("warm run: %+v, want 2 hits / 1 miss (broken group refused caching)", *stats)
	}
}

// TestAnalyzerSubsetGetsOwnEntries: -analyzers subsets and the full registry
// must not serve each other's results.
func TestAnalyzerSubsetGetsOwnEntries(t *testing.T) {
	root, facts := t.TempDir(), t.TempDir()
	writeTree(t, root, twoPackageTree())

	full, _, _ := runCached(t, root, facts)
	if len(full.Diagnostics) != 1 {
		t.Fatalf("full run: %v", diagStrings(full))
	}

	sub, ok := analyzers.ByName("maporder")
	if !ok {
		t.Fatal("maporder not registered")
	}
	loader := lint.NewLoader(root, "example.com/m")
	res, stats, err := Run(loader, &lint.Runner{Analyzers: sub, Known: analyzers.KnownNames()}, facts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 {
		t.Fatalf("subset run hit the full-registry entries: %+v", *stats)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("maporder-only run reported %v", diagStrings(res))
	}
}

// TestTestsFlagPartitionsCache: -tests=false runs hash a different file set
// and must not reuse -tests=true entries (a _test.go finding would leak).
func TestTestsFlagPartitionsCache(t *testing.T) {
	root, facts := t.TempDir(), t.TempDir()
	tree := twoPackageTree()
	tree["a/a_test.go"] = `package a

import "testing"

func TestEq(t *testing.T) {
	if !Eq(1, 1) { // the fixture's floateq body is in a.go, not here
		t.Fatal("Eq")
	}
}
`
	writeTree(t, root, tree)

	loader := lint.NewLoader(root, "example.com/m")
	full, _, err := Run(loader, newRunner(), facts)
	if err != nil {
		t.Fatal(err)
	}

	noTests := lint.NewLoader(root, "example.com/m")
	noTests.Tests = false
	res, stats, err := Run(noTests, newRunner(), facts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 {
		t.Fatalf("-tests=false run reused -tests=true entries: %+v", *stats)
	}
	sameDiags(t, "tests=false vs tests=true (findings live in non-test files)", res, full)
}
