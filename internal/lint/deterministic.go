package lint

import (
	"go/ast"
	"go/types"
)

// Deterministic enforces the `//snb:deterministic` contract on the BI
// kernels and the result-merge paths: those functions must produce
// byte-identical output regardless of worker count, wall clock, or map
// seed (the exec engine asserts cross-worker-count determinism in its
// tests; this pass makes the property auditable at every call site).
// Inside a marked function the pass forbids:
//
//   - ranging over a map — iteration order is randomised per run. There is
//     no suppression: keep the entries in first-seen order (a
//     workload.KeyTable) or sort them.
//   - reading the clock: time.Now, time.Since, time.Until.
//   - drawing randomness: anything in math/rand or math/rand/v2.
//   - branching on machine shape: runtime.GOMAXPROCS, runtime.NumCPU.
//
// The check covers the marked function's own body only; callees carry
// their own markers. That keeps the contract local and reviewable.
var Deterministic = &Analyzer{
	Name: "deterministic",
	Doc:  "flag map iteration, clock reads, randomness, and GOMAXPROCS in //snb:deterministic functions",
	Run:  runDeterministic,
}

// nondetCalls maps package path -> function names whose results vary
// across runs. An empty name set means the whole package.
var nondetCalls = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"math/rand":    nil,
	"math/rand/v2": nil,
	"runtime":      {"GOMAXPROCS": true, "NumCPU": true},
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func runDeterministic(pass *Pass) {
	eachFunc(pass, func(_ *ast.File, decl *ast.FuncDecl) {
		if _, ok := funcDirective(decl, "deterministic"); !ok {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.RangeStmt:
				tv, found := pass.Info.Types[st.X]
				if !found || !isMapType(tv.Type) {
					return true
				}
				pass.Reportf(st.Range, "map iteration in //snb:deterministic function %s; order is randomised per run — keep the entries in first-seen order or sort them", decl.Name.Name)
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, st)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				names, bad := nondetCalls[fn.Pkg().Path()]
				if !bad || (names != nil && !names[fn.Name()]) {
					return true
				}
				pass.Reportf(st.Pos(), "call to %s.%s in //snb:deterministic function %s; its result varies across runs", fn.Pkg().Path(), fn.Name(), decl.Name.Name)
			}
			return true
		})
	})
}
