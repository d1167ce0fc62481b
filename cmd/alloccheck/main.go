// Command alloccheck statically proves the module's zero-allocation hot
// paths (DESIGN.md §13). For every function annotated //gpower:noalloc it
// walks the whole static call graph and proves no reachable statement can
// allocate, with a conservative may-allocate default for anything it
// cannot resolve. Individually justified sites (cold miss paths, warm-up
// growth) are suppressed with `//gpower:allocs <reason>`; reasonless or
// dead suppressions are errors.
//
// Usage:
//
//	alloccheck [flags] [./... | import/path ...]
//
//	-json     machine-readable output
//	-report   dump the raw allocation-site inventory of the named packages
//	          (default: the whole module) instead of proving roots
//	-tests    also analyze _test.go files (default false: the proof covers
//	          production code; tests measure, they do not serve)
//
// Exit status: 0 every root proven and no directive errors, 1 findings or
// bad directives, 2 usage or load failure. Output is position-ordered and
// byte-identical across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	report := flag.Bool("report", false, "dump the allocation-site inventory instead of proving roots")
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	flag.Parse()

	root, modPath, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloccheck: %v\n", err)
		os.Exit(2)
	}
	loader := lint.NewLoader(root, modPath)
	loader.Tests = *tests
	cwd, _ := os.Getwd()

	if *report {
		pkgs, err := loadArgs(loader, root, modPath, flag.Args())
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloccheck: %v\n", err)
			os.Exit(2)
		}
		inv := alloccheck.Inventory(pkgs, modPath)
		if *jsonOut {
			err = alloccheck.WriteInventoryJSON(os.Stdout, cwd, inv)
		} else {
			err = alloccheck.WriteInventoryText(os.Stdout, cwd, inv)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloccheck: %v\n", err)
			os.Exit(2)
		}
		return
	}

	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "alloccheck: prove mode covers the whole module; only the ./... pattern is supported (got %q)\n", arg)
			os.Exit(2)
		}
	}
	checker, err := alloccheck.NewChecker(loader, modPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloccheck: %v\n", err)
		os.Exit(2)
	}
	res := checker.Check()
	if *jsonOut {
		err = res.WriteJSON(os.Stdout, cwd)
	} else {
		err = res.WriteText(os.Stdout, cwd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloccheck: %v\n", err)
		os.Exit(2)
	}
	if !res.Clean() {
		os.Exit(1)
	}
}

// loadArgs loads the packages named on the command line for -report mode:
// import paths, directory paths (./x, resolved against the module root), or
// ./... for everything.
func loadArgs(loader *lint.Loader, root, modPath string, args []string) ([]*lint.Package, error) {
	if len(args) == 0 {
		return loader.LoadAll()
	}
	var pkgs []*lint.Package
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return loader.LoadAll()
		}
		path := arg
		if rel, ok := moduleRel(root, arg); ok {
			if rel == "." {
				path = modPath
			} else {
				path = modPath + "/" + rel
			}
		}
		loaded, err := loader.LoadPackages(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}

// moduleRel interprets arg as a directory path and rewrites it relative to
// the module root; ok=false when arg is already an import path.
func moduleRel(root, arg string) (string, bool) {
	if len(arg) == 0 || (arg[0] != '.' && arg[0] != '/') {
		return "", false
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return "", false
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return "", false
	}
	return filepath.ToSlash(rel), true
}
