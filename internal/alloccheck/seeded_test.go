package alloccheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint/linttest"
)

// seededGovernorAppend plants a growing append inside the governor package:
// the classic hot-path regression alloccheck exists to catch.
const seededGovernorAppend = `package governor

//gpower:noalloc seeded: the visited log grows on every decision
func zzSeededScanDecisions(n int) int {
	var visited []int
	for i := 0; i < n; i++ {
		visited = append(visited, i)
	}
	return len(visited)
}
`

// seededCoreSprintf plants an interface-boxing fmt.Sprintf into the core
// package: formatting on a per-prediction path.
const seededCoreSprintf = `package core

import "fmt"

//gpower:noalloc seeded: the label formats the device name on every call
func zzSeededLabel(m *Model) string {
	return fmt.Sprintf("%s#%d", m.DeviceName, m.Iterations)
}
`

// TestSeededMutations copies the real module into a scratch tree, verifies
// the copy proves clean, plants two allocating mutations into annotated
// functions, and requires alloccheck to report exactly those two — with no
// leakage into the untouched files.
func TestSeededMutations(t *testing.T) {
	root, modPath := linttest.ModuleRoot(t)
	dst := t.TempDir()
	linttest.CopyModuleGoFiles(t, root, dst)

	base := checkModule(t, dst, modPath)
	if !base.Clean() {
		t.Fatalf("pristine copy not clean: errors=%v proven=%d/%d", base.BadDirectives, base.ProvenCount, base.RootCount)
	}

	plants := map[string]string{
		filepath.Join(dst, "internal", "governor", "zzseeded.go"): seededGovernorAppend,
		filepath.Join(dst, "internal", "core", "zzseeded.go"):     seededCoreSprintf,
	}
	for path, src := range plants {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	res := checkModule(t, dst, modPath)
	if res.Clean() {
		t.Fatal("seeded mutations went undetected")
	}
	if len(res.BadDirectives) != 0 {
		t.Fatalf("unexpected directive errors: %v", res.BadDirectives)
	}
	if res.RootCount != base.RootCount+2 {
		t.Fatalf("RootCount = %d, want %d (baseline %d + 2 plants)", res.RootCount, base.RootCount+2, base.RootCount)
	}
	if res.ProvenCount != base.RootCount {
		t.Fatalf("ProvenCount = %d, want %d (every pre-existing root still proven)", res.ProvenCount, base.RootCount)
	}

	wantCat := map[string]alloccheck.Category{
		"gpupower/internal/governor.zzSeededScanDecisions": alloccheck.CatAppend,
		"gpupower/internal/core.zzSeededLabel":             alloccheck.CatFormat,
	}
	caught := 0
	for i := range res.Roots {
		r := &res.Roots[i]
		cat, planted := wantCat[r.Func]
		if !planted {
			if !r.Proven {
				t.Errorf("leakage: untouched root %s became unproven: %v", r.Func, r.Findings)
			}
			continue
		}
		caught++
		if r.Proven {
			t.Errorf("plant %s not reported", r.Func)
			continue
		}
		if !hasCategory(r, cat) {
			t.Errorf("plant %s: no %s finding in %v", r.Func, cat, r.Findings)
		}
		for j := range r.Findings {
			if !strings.Contains(r.Findings[j].Pos.Filename, "zzseeded") {
				t.Errorf("plant %s: finding outside the seeded file: %s", r.Func, r.Findings[j].Pos.Filename)
			}
		}
	}
	if caught != 2 {
		t.Fatalf("found %d planted roots, want 2", caught)
	}
}
