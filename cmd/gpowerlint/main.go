// Command gpowerlint is the repository's static-analysis gate (DESIGN.md
// §9 and §13). It type-checks the module from source — standard library
// only, no toolchain or x/tools dependency — runs every registered
// analyzer, then proves the //gpower:noalloc hot paths allocation-free
// over the same loaded packages:
//
//	maporder      range-over-map bodies with order-sensitive effects
//	floateq       exact floating-point == / !=
//	ctxflow       dropped-context loops, mid-stack context.Background()/TODO()
//	gonosync      naked go statements outside internal/parallel
//	unitflow      MHz/volts/watts provenance conflicts in assignments and
//	              math, with cross-package inference facts
//	unusedignore  //lint:ignore directives that suppressed zero diagnostics
//	alloccheck    the interprocedural zero-allocation proof; it runs
//	              whatever -analyzers selects
//
// Packages are analyzed one after another in path order, and diagnostics
// are sorted into a total order, so output is byte-identical across runs.
// A malformed //lint:ignore directive is a lintignore diagnostic and a bad
// //gpower: directive an alloccheck one, at the directive, in text and
// -json output alike; no //lint:ignore suppresses either. The proof's
// one-line summary (roots, proven, escape hatches, functions walked) goes
// to stderr.
//
// Usage:
//
//	gpowerlint [flags] [./...]
//
//	-json             machine-readable output
//	-analyzers list   run only the named analyzers (comma-separated)
//	-tests=false      skip _test.go files
//	-list             print the analyzers and their invariants, then exit
//
// Exit status: 0 clean, 1 diagnostics or bad //lint:ignore or //gpower:
// directives found, 2 usage, load or type-check failure. Analyzer findings
// are suppressed site-by-site with `//lint:ignore <analyzer> <reason>`,
// allocation findings with `//gpower:allocs <reason>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
	"gpupower/internal/lint/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	as := analyzers.All()
	if *only != "" {
		sel, ok := analyzers.ByName(*only)
		if !ok || len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "gpowerlint: unknown analyzer in -analyzers=%q\n", *only)
			os.Exit(2)
		}
		as = sel
	}
	if *list {
		for _, a := range as {
			fmt.Printf("%s\n    %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n    "))
		}
		fmt.Printf("%s\n    %s\n", alloccheck.Name, strings.ReplaceAll(alloccheck.Doc, "\n", "\n    "))
		return
	}

	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "gpowerlint: only the ./... pattern is supported (got %q)\n", arg)
			os.Exit(2)
		}
	}

	root, modPath, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
		os.Exit(2)
	}
	loader := lint.NewLoader(root, modPath)
	loader.Tests = *tests
	// The full registry stays the directive vocabulary even when -analyzers
	// selects a subset: an ignore for an analyzer that merely did not run
	// this time is dormant, not unknown.
	runner := &lint.Runner{Analyzers: as, Known: analyzers.KnownNames()}

	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
		os.Exit(2)
	}
	res, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	proof := alloccheck.NewChecker(pkgs).Check()
	res.Add(proof.Report(cwd))
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, cwd, res.Diagnostics); err != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
			os.Exit(2)
		}
	} else if err := lint.WriteText(os.Stdout, cwd, res.Diagnostics); err != nil {
		fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "alloccheck: %d roots, %d proven, %d escape hatches, %d functions walked\n",
		proof.RootCount, proof.ProvenCount, proof.HatchesUsed, proof.FunctionsWalked)
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}
