// Package lint is snblint's analysis suite: a set of small static
// analysis passes that mechanically enforce the store's documented
// concurrency, aliasing and hot-path invariants — the contracts that
// go vet and the race detector cannot check (the race job only sees the
// interleavings the tests happen to hit; these passes see every call
// site on every build).
//
// The suite is a from-scratch, stdlib-only miniature of the
// golang.org/x/tools go/analysis vocabulary (Analyzer, Pass, Diagnostic,
// `// want` fixture tests): the module carries no external dependencies,
// so the framework is built directly on go/ast and go/types, with
// package loading driven by `go list -export` (see load.go).
//
// # Analyzers
//
//   - viewalias: slices returned by Reader.OutOf/InOf/PropsOf alias shared
//     view-owned memory (decode cache, CSR slabs, property rows) and
//     must not be mutated, appended to, or stored into longer-lived
//     locations.
//   - lockguard: fields annotated `guarded by <mu>` may only be touched
//     by functions that lock <mu> or are annotated `//snb:locked <mu>`.
//   - pubfreeze: a value passed to atomic.Pointer.Store is published and
//     immutable; later writes through it (or passing it to a mutating
//     callee) in the same function are flagged.
//   - deterministic: functions marked `//snb:deterministic` must not
//     iterate maps, read the clock, draw random numbers, or branch on
//     GOMAXPROCS/NumCPU.
//   - syncerr: in the store's persistence code and the serving layer
//     (server, client), errors from Sync/Close/Write/Rename and the
//     net.Conn deadline setters must not be discarded (a dropped fsync
//     error voids the durability guarantee; a dropped SetDeadline
//     leaves a connection unguarded) unless `//snb:errok`.
//   - nomap: the query layers (packages workload and bi, and query's
//     exec.go) must not construct Go maps in non-test files; their keyed
//     scratch state lives in workload.KeyTable.
//   - noalloc: functions marked `//snb:noalloc` are gated against new
//     heap allocations by cmd/allocbound, which parses the compiler's
//     -m escape-analysis output (noalloc.go holds the marker scanner).
//
// docs/ANALYZERS.md documents each invariant and the annotation grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and -only filters.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the suite, in reporting order. The noalloc invariant has no
// entry here: it is enforced by cmd/allocbound against the compiler's
// escape analysis, not by an AST pass (see noalloc.go).
var All = []*Analyzer{
	ViewAlias,
	LockGuard,
	PubFreeze,
	Deterministic,
	SyncErr,
	NoMap,
}

// Run executes the given analyzers over pkgs and returns every finding,
// sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ---- annotation grammar helpers ----

// directiveRE matches `//snb:<name> <args>` machine directives. The
// directive must start its comment (after the marker, like //go:build).
var directiveRE = regexp.MustCompile(`^//snb:([a-z-]+)(?:[ \t]+(.*))?$`)

// funcDirective reports whether fn's doc comment carries //snb:<name>,
// returning the directive's argument text.
func funcDirective(fn *ast.FuncDecl, name string) (string, bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if m := directiveRE.FindStringSubmatch(c.Text); m != nil && m[1] == name {
			return strings.TrimSpace(m[2]), true
		}
	}
	return "", false
}

// directiveLines collects, per file of the pass, the set of source lines
// suppressed by //snb:<name>: the directive's own line and the line
// after it, so both trailing (same-line) and preceding (own-line)
// placements work:
//
//	f.Close() //snb:errok reason
//	//snb:errok reason
//	f.Close()
func directiveLines(pass *Pass, name string) map[*ast.File]map[int]bool {
	out := make(map[*ast.File]map[int]bool)
	for _, f := range pass.Files {
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := directiveRE.FindStringSubmatch(c.Text); m != nil && m[1] == name {
					l := pass.Fset.Position(c.Pos()).Line
					lines[l] = true
					lines[l+1] = true
				}
			}
		}
		out[f] = lines
	}
	return out
}

// eachFunc calls fn for every function declaration with a body in the
// pass's files.
func eachFunc(pass *Pass, fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package function), or nil for builtins, conversions and
// calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootIdent walks selector/index/slice/paren/star chains down to the
// identifier they hang off, returning nil for anything else. via
// reports whether the chain passed through an index or slice step
// (i.e. the expression reaches *into* the root's elements).
func rootIdent(e ast.Expr) (id *ast.Ident, viaIndex bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, viaIndex
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
			viaIndex = true
		case *ast.SliceExpr:
			e = x.X
			viaIndex = true
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, viaIndex
		}
	}
}

// isPkgLevel reports whether obj is declared at package scope.
func isPkgLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
