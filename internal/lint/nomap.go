package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// NoMap keeps Go maps out of the query layers, whose keyed scratch state
// lives in workload.KeyTable (O(1) reset, first-seen order, no allocation
// once warm). Scoped by package name like syncerr, it flags every
// make(map...) and map composite literal in the non-test files of the
// noMapPkgs packages. A map type alone (the caller-built query.Params) is
// not flagged.
var NoMap = &Analyzer{
	Name: "nomap",
	Doc:  "flag map construction in the query layers (workload, bi, query's exec.go); use workload.KeyTable",
	Run:  runNoMap,
}

// noMapPkgs maps each checked package name to its one checked file, or to
// "" when every file is checked.
var noMapPkgs = map[string]string{"workload": "", "bi": "", "query": "exec.go"}

func runNoMap(pass *Pass) {
	only, ok := noMapPkgs[pass.Pkg.Name()]
	if !ok {
		return
	}
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") || (only != "" && name != only) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var how string
			switch x := n.(type) {
			case *ast.CompositeLit:
				if tv, found := pass.Info.Types[x]; found && isMapType(tv.Type) {
					how = "map literal"
				}
			case *ast.CallExpr:
				id, isID := ast.Unparen(x.Fun).(*ast.Ident)
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); isID && builtin && id.Name == "make" &&
					isMapType(pass.Info.Types[x.Args[0]].Type) {
					how = "make(map)"
				}
			}
			if how == "" {
				return true
			}
			pass.Reportf(n.Pos(), "%s in package %s; keep keyed query state in a workload.KeyTable", how, pass.Pkg.Name())
			return false
		})
	}
}
