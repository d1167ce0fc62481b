package alloccheck

import "gpupower/internal/lint"

// CheckModule proves every annotated root of the module enclosing dir over
// its production sources (_test.go files excluded) — the embedded
// equivalent of `alloccheck ./...`. It returns the result and the module
// root, for rendering positions relative to it.
func CheckModule(dir string) (*Result, string, error) {
	root, modPath, err := lint.FindModule(dir)
	if err != nil {
		return nil, "", err
	}
	loader := lint.NewLoader(root, modPath)
	loader.Tests = false
	c, err := NewChecker(loader, modPath)
	if err != nil {
		return nil, "", err
	}
	return c.Check(), root, nil
}
