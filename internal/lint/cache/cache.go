// Package cache is gpowerlint's content-hash incremental engine.
//
// A cold run type-checks the whole module from source — the dominant cost of
// `make lint` by two orders of magnitude over the analyzers themselves. But
// the run's outcome for one directory group (a package plus its external-test
// sibling) is a pure function of
//
//   - the group's own .go sources,
//   - the sources of every in-module package it transitively imports
//     (type information flows along imports, nothing else),
//   - the analyzer set (names + doc-fingerprints) and directive vocabulary,
//   - the Tests flag and the Go version that type-checks it.
//
// So each group's post-suppression result is stored on disk under a SHA-256
// key over exactly those inputs, and a warm run replays unchanged groups
// without parsing or type-checking them at all. Suppression never crosses a
// file boundary (see lint.Ignore), so groups replay independently and the
// merged report is byte-identical to a cold run.
//
// Failure containment: a group whose run produced directive errors is never
// cached (those must fail loudly every run until fixed), an unreadable or
// mismatched entry is treated as a miss and deleted, and any hashing problem
// falls back to a plain uncached run of that group. The cache can make a run
// faster or it can get out of the way; it cannot change the verdict.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"gpupower/internal/lint"
)

// SchemaVersion invalidates every entry when the cache layout or the engine's
// replay semantics change. Bump it whenever entry (de)serialization, the key
// recipe, or Runner group semantics change incompatibly.
const SchemaVersion = 1

// Stats summarizes one cached run.
type Stats struct {
	Groups  int // directory groups considered
	Hits    int // groups replayed from disk
	Misses  int // groups analyzed from source (includes corrupt entries)
	Corrupt int // entries that existed but failed to decode or key-match
}

func (s Stats) String() string {
	return fmt.Sprintf("%d/%d groups cached (%d analyzed, %d corrupt)", s.Hits, s.Groups, s.Misses, s.Corrupt)
}

// Run executes runner over every package in loader's tree, replaying
// unchanged directory groups from dir. The returned result is identical to
// runner.Run(loader.LoadAll()) — same diagnostics, same order — with
// loader.TypeCheckedPaths() staying empty for fully-warm runs.
//
// Groups run in path order. Each one's key is hashed from ImportsOnly
// parses (memoized across the shared import closure, and cheap next to
// type-checking); a hit replays the group from disk, a miss analyzes it
// from source. Results merge in path order and sort once. Run is
// single-goroutine, like the Loader and Runner it drives; entry writes go
// through write-then-rename, so a crashed or concurrent run never reads a
// torn cache file.
func Run(loader *lint.Loader, runner *lint.Runner, dir string) (*lint.Result, *Stats, error) {
	paths, err := loader.Discover()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("lint cache: %w", err)
	}
	h := &hasher{loader: loader, fset: token.NewFileSet(), keys: make(map[string]string), visiting: make(map[string]bool)}
	fingerprint := runnerFingerprint(runner, loader.Tests)

	stats := &Stats{Groups: len(paths)}
	res := &lint.Result{}
	for _, path := range paths {
		// A group whose key fails (unreadable file, import cycle in a
		// broken tree) runs uncached; the loader will produce the
		// authoritative error if there is one.
		key, keyErr := h.groupKey(path, fingerprint)
		file := ""
		if keyErr == nil {
			file = entryFile(dir, path, key)
			if cached, ok := readEntry(file, key); ok {
				stats.Hits++
				res.Merge(cached.result(loader.RootDir))
				continue
			} else if _, statErr := os.Stat(file); statErr == nil {
				stats.Corrupt++
				os.Remove(file)
			}
		}
		gr, err := runGroup(loader, runner, path)
		if err != nil {
			return nil, nil, err
		}
		stats.Misses++
		res.Merge(gr)
		if file != "" && len(gr.DirectiveErrors) == 0 {
			writeEntry(file, newEntry(key, path, gr, loader.RootDir))
		}
	}
	lint.SortDiagnostics(res.Diagnostics)
	return res, stats, nil
}

func runGroup(loader *lint.Loader, runner *lint.Runner, path string) (*lint.Result, error) {
	pkgs, err := loader.LoadPackages(path)
	if err != nil {
		return nil, err
	}
	return runner.RunGroup(pkgs)
}

// runnerFingerprint folds everything about the analysis configuration —
// which analyzers run, what their documented contracts are, the directive
// vocabulary, the Tests flag and the Go toolchain version — into one digest.
func runnerFingerprint(r *lint.Runner, tests bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\n", SchemaVersion)
	fmt.Fprintf(h, "go=%s\n", runtime.Version())
	fmt.Fprintf(h, "tests=%v\n", tests)
	for _, a := range r.Analyzers {
		fmt.Fprintf(h, "analyzer=%s\x00%s\n", a.Name, a.Doc)
	}
	var known []string
	for name := range r.Known {
		known = append(known, name)
	}
	sort.Strings(known)
	fmt.Fprintf(h, "known=%s\n", strings.Join(known, ","))
	return hex.EncodeToString(h.Sum(nil))
}

// hasher computes transitive content keys for directory groups. Keys are
// memoized per import path; visiting guards against import cycles (a broken
// tree — surfaced as a key error, which degrades to an uncached run).
type hasher struct {
	loader   *lint.Loader
	fset     *token.FileSet
	keys     map[string]string
	visiting map[string]bool
}

// groupKey returns the cache key for the group at path: a digest over the
// runner fingerprint, the group's own sorted (name, content-hash) pairs and
// the recursive keys of its in-module imports.
func (h *hasher) groupKey(path, fingerprint string) (string, error) {
	self, err := h.pathKey(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(fingerprint + "\x00" + self))
	return hex.EncodeToString(sum[:]), nil
}

// pathKey is the content-only (fingerprint-free) recursive key of a package
// directory, shared between a group's own key and its importers' keys.
func (h *hasher) pathKey(path string) (string, error) {
	if k, ok := h.keys[path]; ok {
		return k, nil
	}
	if h.visiting[path] {
		return "", fmt.Errorf("lint cache: import cycle through %q", path)
	}
	h.visiting[path] = true
	defer delete(h.visiting, path)

	dir, ok := h.loader.DirFor(path)
	if !ok {
		return "", fmt.Errorf("lint cache: no directory for %q", path)
	}
	files, err := groupFiles(dir, h.loader.Tests)
	if err != nil {
		return "", err
	}
	hash := sha256.New()
	fmt.Fprintf(hash, "path=%s\n", path)
	depSet := make(map[string]bool)
	for _, name := range files {
		full := filepath.Join(dir, name)
		data, err := os.ReadFile(full)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(hash, "file=%s\x00%s\n", name, hex.EncodeToString(sum[:]))
		for _, imp := range h.imports(full, data) {
			if imp == path {
				continue // external tests import their own package
			}
			if _, local := h.loader.DirFor(imp); local {
				depSet[imp] = true
			}
		}
	}
	deps := make([]string, 0, len(depSet))
	for d := range depSet {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	for _, d := range deps {
		dk, err := h.pathKey(d)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(hash, "dep=%s\x00%s\n", d, dk)
	}
	key := hex.EncodeToString(hash.Sum(nil))
	h.keys[path] = key
	return key, nil
}

// imports extracts the import paths of one file via an ImportsOnly parse —
// the whole point being that no full parse or type check happens on the
// warm path.
func (h *hasher) imports(filename string, src []byte) []string {
	f, err := parser.ParseFile(h.fset, filename, src, parser.ImportsOnly)
	if err != nil {
		return nil // unparsable files will fail the real load on the miss path
	}
	var out []string
	for _, spec := range f.Imports {
		if p, err := strconv.Unquote(spec.Path.Value); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// groupFiles lists the directory's buildable .go file names under the same
// filter the loader applies, so key inputs and analyzed inputs agree.
func groupFiles(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// entry is the on-disk record of one group's post-suppression result.
type entry struct {
	Schema     int       `json:"schema"`
	Key        string    `json:"key"`
	Path       string    `json:"path"`
	Suppressed int       `json:"suppressed"`
	Diags      []diagRec `json:"diags,omitempty"`
}

// diagRec flattens a lint.Diagnostic with the filename made root-relative,
// so a cache survives the checkout moving (CI restores into varying paths).
type diagRec struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Offset   int    `json:"offset"`
	Message  string `json:"message"`
}

func newEntry(key, path string, res *lint.Result, root string) *entry {
	e := &entry{Schema: SchemaVersion, Key: key, Path: path, Suppressed: res.Suppressed}
	for _, d := range res.Diagnostics {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		e.Diags = append(e.Diags, diagRec{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Offset:   d.Pos.Offset,
			Message:  d.Message,
		})
	}
	return e
}

// result rehydrates the entry into a group result, resolving filenames
// against the current module root.
func (e *entry) result(root string) *lint.Result {
	res := &lint.Result{Suppressed: e.Suppressed}
	for _, d := range e.Diags {
		file := filepath.FromSlash(d.File)
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		res.Diagnostics = append(res.Diagnostics, lint.Diagnostic{
			Analyzer: d.Analyzer,
			Pos:      token.Position{Filename: file, Line: d.Line, Column: d.Col, Offset: d.Offset},
			Message:  d.Message,
		})
	}
	return res
}

// entryFile names the on-disk entry: a readable path slug plus the key, so
// `ls` of the cache directory is debuggable and distinct configurations
// (analyzer subsets, -tests=false) coexist.
func entryFile(dir, path, key string) string {
	slug := strings.NewReplacer("/", "-", "\\", "-", ":", "-").Replace(path)
	if len(slug) > 80 {
		slug = slug[len(slug)-80:]
	}
	return filepath.Join(dir, slug+"-"+key[:24]+".json")
}

// readEntry loads and validates one entry; any mismatch is a miss.
func readEntry(file, key string) (*entry, bool) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != SchemaVersion || e.Key != key {
		return nil, false
	}
	return &e, true
}

// writeEntry persists one entry atomically (write-then-rename), so a crashed
// or concurrent run never leaves a half-written record where a future run
// would read it. Persistence failures are silently a non-event: the next run
// simply misses.
func writeEntry(file string, e *entry) {
	data, err := json.MarshalIndent(e, "", "\t")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(file), ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, file); err != nil {
		os.Remove(name)
	}
}
