package alloccheck_test

import (
	"bytes"
	"testing"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
	"gpupower/internal/lint/linttest"
)

// checkModule proves the module rooted at dir with a fresh loader and
// checker over its production sources, as CheckModule does.
func checkModule(t *testing.T, dir, modPath string) *alloccheck.Result {
	t.Helper()
	loader := lint.NewLoader(dir, modPath)
	loader.Tests = false
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load module at %s: %v", dir, err)
	}
	return alloccheck.NewChecker(pkgs).Check()
}

// render prints a proof run the way gpowerlint reports it: the diagnostics,
// bad directives included, in lint's text and JSON forms.
func render(t *testing.T, res *alloccheck.Result, base string) (text, js []byte) {
	t.Helper()
	diags := res.Report(base)
	var tb, jb bytes.Buffer
	if err := lint.WriteText(&tb, base, diags); err != nil {
		t.Fatal(err)
	}
	if err := lint.WriteJSON(&jb, base, diags); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestModuleHotPathsProven is the in-repo gate: every annotated hot-path
// root in the real module must prove allocation-free at HEAD, with no
// malformed or dead directives.
func TestModuleHotPathsProven(t *testing.T) {
	root, modPath := linttest.ModuleRoot(t)
	res := checkModule(t, root, modPath)
	if !res.Clean() {
		text, _ := render(t, res, root)
		t.Fatalf("module hot paths not proven (%d of %d roots):\n%s", res.ProvenCount, res.RootCount, text)
	}
	if res.RootCount < 10 {
		t.Fatalf("only %d annotated roots; the hot-path sweep requires at least 10", res.RootCount)
	}
	if res.FunctionsWalked < res.RootCount {
		t.Fatalf("walked %d functions for %d roots; the interprocedural walk went nowhere", res.FunctionsWalked, res.RootCount)
	}
}

// TestModuleOutputDeterministic runs two fully independent proofs and
// requires byte-identical reports in lint's text and JSON forms: over the
// module, and over the fixtures whose findings carry propagation chains
// through cycles and directive errors (the module itself proves clean, so
// its reports alone would compare two empty outputs).
func TestModuleOutputDeterministic(t *testing.T) {
	root, modPath := linttest.ModuleRoot(t)
	runs := []struct {
		name string
		run  func() *alloccheck.Result
	}{
		{"module", func() *alloccheck.Result { return checkModule(t, root, modPath) }},
		{"interproc", func() *alloccheck.Result { return runFixture(t, "interproc") }},
		{"taxonomy", func() *alloccheck.Result { return runFixture(t, "taxonomy") }},
		{"direrr", func() *alloccheck.Result { return runFixture(t, "direrr") }},
	}
	for _, r := range runs {
		name := r.name
		res1, res2 := r.run(), r.run()
		if res1.FunctionsWalked != res2.FunctionsWalked || res1.HatchesUsed != res2.HatchesUsed {
			t.Errorf("%s: totals differ across runs: %d/%d functions, %d/%d hatches", name,
				res1.FunctionsWalked, res2.FunctionsWalked, res1.HatchesUsed, res2.HatchesUsed)
		}
		text1, json1 := render(t, res1, root)
		text2, json2 := render(t, res2, root)
		if !bytes.Equal(text1, text2) {
			t.Errorf("%s: text reports differ across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", name, text1, text2)
		}
		if !bytes.Equal(json1, json2) {
			t.Errorf("%s: JSON reports differ across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", name, json1, json2)
		}
	}
}
