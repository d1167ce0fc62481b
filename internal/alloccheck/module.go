package alloccheck

import "gpupower/internal/lint"

// CheckModule proves every annotated root of the module enclosing dir over
// its production sources (_test.go files excluded), for callers that want
// the proof's totals without gpowerlint's analyzers.
func CheckModule(dir string) (*Result, error) {
	root, modPath, err := lint.FindModule(dir)
	if err != nil {
		return nil, err
	}
	loader := lint.NewLoader(root, modPath)
	loader.Tests = false
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	return NewChecker(pkgs).Check(), nil
}
