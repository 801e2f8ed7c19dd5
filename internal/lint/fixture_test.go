package lint

// Fixture harness in the style of x/tools analysistest: each analyzer
// has a directory under testdata/src/<analyzer>/ holding one or more
// small packages; source lines that must produce a diagnostic carry a
// trailing  // want `regex`  comment, and the test fails on any
// unexpected diagnostic, any unmatched want, or any want whose regex
// does not match the message. Fixture packages may import each other by
// bare path (a directory under the analyzer's root) and the standard
// library (resolved through build-cache export data, like real loads).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"testing"
)

// stdExports memoises export-data locations for the std packages the
// fixtures import (plus transitive dependencies), resolved once per
// test process via `go list -export -deps`.
var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

func stdExportMap(t *testing.T) map[string]string {
	t.Helper()
	stdExportsOnce.Do(func() {
		pkgs, err := goList(".",
			"errors", "fmt", "io", "math/rand", "net", "os", "runtime",
			"sort", "strings", "sync", "sync/atomic", "time")
		if err != nil {
			stdExportsErr = err
			return
		}
		stdExports = make(map[string]string, len(pkgs))
		for _, p := range pkgs {
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdExportsErr != nil {
		t.Fatalf("resolving std export data: %v", stdExportsErr)
	}
	return stdExports
}

// fixtureLoader type-checks fixture packages from source, resolving
// imports first against sibling fixture directories, then against the
// standard library's export data.
type fixtureLoader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*Package
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, path); isDir(dir) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func (l *fixtureLoader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Fset: l.fset, Syntax: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// wantRE extracts the expectation regex from a `// want `...“ comment.
var wantRE = regexp.MustCompile("// want `(.*)`\\s*$")

type wantExpect struct {
	re      *regexp.Regexp
	matched bool
}

// runFixture loads the named fixture packages under
// testdata/src/<dir>/, runs the analyzer over them, and checks the
// diagnostics against the fixtures' want comments.
func runFixture(t *testing.T, a *Analyzer, dir string, paths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	l := &fixtureLoader{
		fset: fset,
		root: filepath.Join("testdata", "src", dir),
		std:  exportImporter(fset, stdExportMap(t)),
		pkgs: make(map[string]*Package),
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			t.Fatalf("loading fixture %s/%s: %v", dir, p, err)
		}
		pkgs = append(pkgs, pkg)
	}

	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*wantExpect)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regex %q: %v", fset.Position(c.Pos()), m[1], err)
					}
					k := lineKey{fset.Position(c.Pos()).Filename, fset.Position(c.Pos()).Line}
					wants[k] = append(wants[k], &wantExpect{re: re})
				}
			}
		}
	}

	for _, d := range Run([]*Analyzer{a}, pkgs) {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want `%s`", k.file, k.line, w.re)
			}
		}
	}
}

func TestViewAlias(t *testing.T)     { runFixture(t, ViewAlias, "viewalias", "a") }
func TestLockGuard(t *testing.T)     { runFixture(t, LockGuard, "lockguard", "a") }
func TestPubFreeze(t *testing.T)     { runFixture(t, PubFreeze, "pubfreeze", "a") }
func TestDeterministic(t *testing.T) { runFixture(t, Deterministic, "deterministic", "a") }
func TestSyncErr(t *testing.T)       { runFixture(t, SyncErr, "syncerr", "store", "server") }
func TestNoMap(t *testing.T)         { runFixture(t, NoMap, "nomap", "workload", "query", "store") }
