package lint

import (
	"go/ast"
	"go/types"
)

// ViewAlias enforces the Reader scratch-aliasing contract: slices
// returned by OutOf, InOf and PropsOf on the store's reader surface (and
// the harness's Out), and by NodeRow.Edges (the row OutNodes and InNodes
// read) alias view-owned shared memory — the per-row decode cache, the
// CSR overlay rows, the property rows shared with the store's node
// records — so a caller-side write corrupts every concurrent reader of the
// same view. A KindScan's IDs, the reader's per-kind list, share the same
// contract.
//
// Within each function the pass taints values returned by those methods
// (propagating through plain copies and re-slices) and flags, on a tainted
// variable and equally on such a call or a re-slice of one used directly
// (h.rows = v.InOf(n), x := v.InOf(n)[1:]):
//
//   - element writes:     row[i] = e, row[i].Stamp = 0, row[i]++
//   - growth:             append(row, ...) with the tainted slice as base
//   - in-place sorting:   sort.Slice/SliceStable/Sort/Stable(row, ...)
//   - escape to storage:  x.field = row, pkgVar = row, ch <- row
//
// Copy-out (`append(dst, row...)`, `copy(dst, row)`, ranging) is the
// sanctioned idiom and is not flagged.
var ViewAlias = &Analyzer{
	Name: "viewalias",
	Doc:  "flag mutation or escape of slices returned by Reader.Out/OutOf/InOf/PropsOf, KindScan.IDs and NodeRow.Edges (shared view memory)",
	Run:  runViewAlias,
}

// readerAliasMethods are the Reader-surface methods whose results alias
// shared view memory, keyed by method name. The receiver must resolve to
// a method declared in a package named "store" (the concrete
// SnapshotView/Txn methods and the Reader interface methods both do;
// generic code calling through a type parameter constrained by
// store.Reader resolves to the interface methods).
var readerAliasMethods = map[string]bool{
	"Out":     true,
	"OutOf":   true,
	"InOf":    true,
	"PropsOf": true,
	"IDs":     true,
	"Edges":   true,
}

// isAliasCall reports whether call returns view-aliased memory.
func isAliasCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "store" {
		return false
	}
	return readerAliasMethods[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil
}

// isAliasSlice reports whether e is an alias call or a re-slice of one
// (v.InOf(n)[1:]).
func isAliasSlice(info *types.Info, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			return isAliasCall(info, x)
		default:
			return false
		}
	}
}

func runViewAlias(pass *Pass) {
	eachFunc(pass, func(_ *ast.File, decl *ast.FuncDecl) {
		viewAliasFunc(pass, decl)
	})
}

func viewAliasFunc(pass *Pass, decl *ast.FuncDecl) {
	// Pass 1 (to fixpoint): the set of objects holding tainted slices.
	// x := r.OutOf(...) taints x; y := x and y := x[1:] propagate; any
	// other assignment to the object clears it conservatively? No —
	// flow-insensitive: once tainted in this function, always suspect.
	tainted := make(map[types.Object]bool)
	taintOf := func(e ast.Expr) bool {
		if isAliasSlice(pass.Info, e) {
			return true
		}
		if id, _ := rootIdent(e); id != nil {
			if obj := pass.Info.Uses[id]; obj != nil && tainted[obj] {
				// Plain copies and re-slices alias; struct-field reads of
				// a tainted root do not make the field value a view row.
				switch ast.Unparen(e).(type) {
				case *ast.Ident, *ast.SliceExpr, *ast.ParenExpr:
					return true
				}
			}
		}
		return false
	}
	obj := func(id *ast.Ident) types.Object {
		if o := pass.Info.Defs[id]; o != nil {
			return o
		}
		return pass.Info.Uses[id]
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Multi-value call assigns (ps, ok := r.PropsOf(n)) taint LHS[0];
			// one-to-one assigns taint positionally.
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				if call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); isCall && isAliasCall(pass.Info, call) {
					if id, isID := as.Lhs[0].(*ast.Ident); isID {
						if o := obj(id); o != nil && !tainted[o] {
							tainted[o] = true
							changed = true
						}
					}
				}
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, isID := lhs.(*ast.Ident)
				if !isID || !taintOf(as.Rhs[i]) {
					continue
				}
				if o := obj(id); o != nil && !tainted[o] {
					tainted[o] = true
					changed = true
				}
			}
			return true
		})
	}
	// Also taint range value vars? Ranging a tainted slice yields element
	// copies, which are safe. Nothing to do.

	// taintedExpr reports whether e is a view-aliased slice — a tainted
	// variable, an alias call, or a re-slice of either — and names it.
	taintedExpr := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		if isAliasSlice(pass.Info, e) {
			return types.ExprString(e), true
		}
		id, _ := rootIdent(e)
		if id == nil {
			return "", false
		}
		o := pass.Info.Uses[id]
		if o == nil || !tainted[o] {
			return "", false
		}
		// Only the slice itself (or a re-slice of it), not fields read
		// off its elements.
		switch e.(type) {
		case *ast.Ident, *ast.SliceExpr:
			return o.Name(), true
		}
		return "", false
	}

	// Pass 2: flag violations.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				// Element write: root of LHS is tainted and the path
				// indexes into it (row[i] = ..., row[i].Stamp = ...).
				if id, via := rootIdent(lhs); id != nil && via {
					if o := pass.Info.Uses[id]; o != nil && tainted[o] {
						pass.Reportf(lhs.Pos(), "write into %s, which aliases shared view memory returned by Reader.%s", id.Name, "Out/OutOf/InOf/PropsOf")
						continue
					}
				}
				// Escape: tainted slice stored into a struct field,
				// package-level variable, or map/slice element.
				if i < len(st.Rhs) {
					if _, ok := taintedExpr(st.Rhs[i]); !ok {
						continue
					}
					switch l := lhs.(type) {
					case *ast.SelectorExpr:
						pass.Reportf(st.Rhs[i].Pos(), "view-aliased slice stored into field %s; it outlives the read and is shared with concurrent readers — copy it", l.Sel.Name)
					case *ast.IndexExpr:
						pass.Reportf(st.Rhs[i].Pos(), "view-aliased slice stored into a container element; copy it first")
					case *ast.Ident:
						if o := pass.Info.Uses[l]; isPkgLevel(o) {
							pass.Reportf(st.Rhs[i].Pos(), "view-aliased slice stored into package variable %s; copy it first", l.Name)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if id, via := rootIdent(st.X); id != nil && via {
				if o := pass.Info.Uses[id]; o != nil && tainted[o] {
					pass.Reportf(st.X.Pos(), "write into %s, which aliases shared view memory", id.Name)
				}
			}
		case *ast.SendStmt:
			if _, ok := taintedExpr(st.Value); ok {
				pass.Reportf(st.Value.Pos(), "view-aliased slice sent on a channel; the receiver would share view memory — copy it first")
			}
		case *ast.CallExpr:
			viewAliasCall(pass, st, taintedExpr)
		}
		return true
	})
}

// viewAliasCall flags append-with-tainted-base and in-place sorts.
func viewAliasCall(pass *Pass, call *ast.CallExpr, taintedExpr func(ast.Expr) (string, bool)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := pass.Info.Uses[id].(*types.Builtin); isB && b.Name() == "append" && len(call.Args) > 0 {
			// append(row, ...) may write into row's spare capacity — the
			// decode cache row every other reader shares. Spreading a
			// tainted slice as the *source* (append(dst, row...)) is the
			// sanctioned copy-out and only the base argument is checked.
			if name, tainted := taintedExpr(call.Args[0]); tainted {
				pass.Reportf(call.Args[0].Pos(), "append to %s, which aliases shared view memory; copy into caller-owned scratch instead", name)
			}
		}
		return
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
		return
	}
	switch fn.Name() {
	case "Slice", "SliceStable", "Sort", "Stable":
		if len(call.Args) > 0 {
			if name, tainted := taintedExpr(call.Args[0]); tainted {
				pass.Reportf(call.Args[0].Pos(), "in-place sort of %s, which aliases shared view memory; sort a copy", name)
			}
		}
	}
}
