// Command gpowerlint is the repository's domain-invariant static-analysis
// gate (DESIGN.md §9). It type-checks the module from source — standard
// library only, no toolchain or x/tools dependency — and runs every
// registered analyzer:
//
//	maporder      range-over-map bodies with order-sensitive effects
//	floateq       exact floating-point == / !=
//	ctxflow       dropped-context loops, mid-stack context.Background()/TODO()
//	senterr       sentinel-error == / !=, fmt.Errorf wrapping without %w
//	gonosync      naked go statements outside internal/parallel
//	disjointwrite non-index-derived writes to captured state in parallel
//	              closures, including mutation one method call deep
//	unitflow      MHz/volts/watts provenance conflicts in assignments and
//	              math, with cross-package inference facts
//	atomicsnap    torn atomic.Pointer snapshots: second Load in a scope,
//	              inline Load().Field inside loops
//	httpbound     handlers decoding r.Body without http.MaxBytesReader, or
//	              minting context.Background() instead of r.Context()
//	dtounits      DTO field names whose unit disagrees with their json tag
//	unusedignore  //lint:ignore directives that suppressed zero diagnostics
//
// Directory groups are analyzed one after another in path order, and
// diagnostics are merged and sorted into a total order, so output is
// byte-identical across cold, warm and -no-cache runs.
//
// Usage:
//
//	gpowerlint [flags] [./...]
//
//	-json             machine-readable output
//	-analyzers list   run only the named analyzers (comma-separated)
//	-tests=false      skip _test.go files
//	-changed ref      report only diagnostics in files touched since the
//	                  git ref (diff + untracked, rename-aware); the whole
//	                  module is still analyzed, only the report is filtered
//	-list             print the analyzers and their invariants, then exit
//	-facts-dir dir    where per-package results are cached (default:
//	                  os.UserCacheDir()/gpowerlint); unchanged packages are
//	                  replayed from disk without re-type-checking
//	-no-cache         ignore and do not write the facts cache
//	-cache-stats      print hit/miss and GC counts to stderr after the run
//	-cache-gc-age     evict entries not written for this long (default 168h)
//	-cache-gc-max-mb  then evict oldest-first down to this size (default 64)
//
// Exit status: 0 clean, 1 diagnostics (or bad //lint:ignore directives)
// found, 2 usage, load or type-check failure. Findings are suppressed
// site-by-site with `//lint:ignore <analyzer> <reason>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"gpupower/internal/lint"
	"gpupower/internal/lint/analyzers"
	"gpupower/internal/lint/cache"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	changed := flag.String("changed", "", "report only diagnostics in files changed since this git ref")
	list := flag.Bool("list", false, "list analyzers and exit")
	factsDir := flag.String("facts-dir", "", "per-package result cache directory (default: os.UserCacheDir()/gpowerlint)")
	noCache := flag.Bool("no-cache", false, "ignore and do not write the facts cache")
	cacheStats := flag.Bool("cache-stats", false, "print cache hit/miss counts to stderr")
	gcAge := flag.Duration("cache-gc-age", 168*time.Hour, "evict cache entries not written for this long (0 disables the age bound)")
	gcMaxMB := flag.Int64("cache-gc-max-mb", 64, "evict oldest cache entries until the cache fits this many MiB (0 disables the size bound)")
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
		return
	}

	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "gpowerlint: only the ./... pattern is supported (got %q)\n", arg)
			os.Exit(2)
		}
	}

	root, modPath, err := findModule(".")
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

	var res *lint.Result
	if *noCache {
		pkgs, err := loader.LoadAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
			os.Exit(2)
		}
		res, err = runner.Run(pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		dir := *factsDir
		if dir == "" {
			base, err := os.UserCacheDir()
			if err != nil {
				fmt.Fprintf(os.Stderr, "gpowerlint: no user cache dir (set -facts-dir or -no-cache): %v\n", err)
				os.Exit(2)
			}
			dir = filepath.Join(base, "gpowerlint")
		}
		var stats *cache.Stats
		var err error
		res, stats, err = cache.Run(loader, runner, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
			os.Exit(2)
		}
		if *cacheStats {
			fmt.Fprintf(os.Stderr, "gpowerlint: cache %s\n", stats)
		}
		// Bounded cache: every source edit orphans an entry under its old
		// content key, so long-lived machines need eviction. GC failures
		// are non-fatal — the cache can be slow to shrink, never break a run.
		gcStats, gcErr := cache.GC(dir, cache.GCOptions{MaxAge: *gcAge, MaxBytes: *gcMaxMB << 20})
		if gcErr != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", gcErr)
		} else if *cacheStats {
			fmt.Fprintf(os.Stderr, "gpowerlint: %s\n", gcStats)
		}
	}
	if *changed != "" {
		set, err := lint.ChangedSince(root, *changed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
			os.Exit(2)
		}
		res.Diagnostics = lint.FilterChanged(res.Diagnostics, set, root)
	}

	cwd, _ := os.Getwd()
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, cwd, res.Diagnostics); err != nil {
			fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
			os.Exit(2)
		}
	} else if err := lint.WriteText(os.Stdout, cwd, res.Diagnostics); err != nil {
		fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", err)
		os.Exit(2)
	}
	for _, derr := range res.DirectiveErrors {
		fmt.Fprintf(os.Stderr, "gpowerlint: %v\n", derr)
	}
	if len(res.Diagnostics) > 0 || len(res.DirectiveErrors) > 0 {
		os.Exit(1)
	}
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("no module directive in %s", filepath.Join(abs, "go.mod"))
			}
			return abs, string(m[1]), nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s (run from inside the module)", dir)
		}
		abs = parent
	}
}
