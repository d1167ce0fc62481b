package gpupower_test

import (
	"go/build"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestModelSideLinksNoSimulator checks the substitution argument of
// DESIGN.md §8 on the import graph: the packages that fit, serve and act
// on models reach a GPU only through internal/backend, so none of them
// links the simulator, its hidden ground truth, its CUPTI layer or the
// simulator-backed fleet.
func TestModelSideLinksNoSimulator(t *testing.T) {
	modelSide := []string{
		"./internal/backend", "./internal/backend/trace", "./internal/profiler",
		"./internal/core", "./internal/governor", "./internal/autotune",
		"./internal/registry", "./internal/serve", "./internal/metrics",
		"./internal/cluster",
	}
	forbidden := map[string]bool{
		"gpupower/internal/sim":     true,
		"gpupower/internal/silicon": true,
		"gpupower/internal/cupti":   true,
		"gpupower/internal/fleet":   true,
	}
	goTool := filepath.Join(build.Default.GOROOT, "bin", "go")
	for _, pkg := range modelSide {
		// Every package pkg links, each with its direct imports.
		args := []string{"list", "-deps", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", pkg}
		out, err := exec.Command(goTool, args...).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			fields := strings.Fields(line)
			for _, imp := range fields[1:] {
				if forbidden[imp] {
					t.Errorf("%s links %s: %s imports it", pkg, imp, fields[0])
				}
			}
		}
	}
}
