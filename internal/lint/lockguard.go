package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces `guarded by <mu>` field annotations: a struct field
// whose doc or line comment names its guarding mutex may only be read or
// written inside functions that either lock that mutex themselves
// (<expr>.<mu>.Lock() / RLock() anywhere in the function body) or are
// annotated `//snb:locked <mu>` — the caller-holds-the-lock (or
// object-not-yet-published) contract. Writes additionally require the
// exclusive Lock; a function that only RLocks and still writes the field
// is flagged.
//
// The check is deliberately flow-insensitive (a Lock anywhere in the
// function clears the whole function): it catches the dangerous class —
// a new call site touching a guarded field with no locking discipline at
// all — without a false-positive tax on the lock/unlock dance around
// early returns. Struct construction through composite literals is not a
// field access and needs no clearance.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "flag access to `guarded by <mu>` fields in functions that neither lock <mu> nor declare //snb:locked <mu>",
	Run:  runLockGuard,
}

// guardedRE extracts the mutex name from a field comment. The guard must
// be a sibling field name (e.g. `// guarded by mu`).
var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardKey identifies one annotated field.
type guardKey struct {
	typeName string
	field    string
}

// collectGuards scans the pass's struct declarations for guarded-by
// field annotations.
func collectGuards(pass *Pass) map[guardKey]string {
	guards := make(map[guardKey]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				var mu string
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
						mu = m[1]
					}
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					guards[guardKey{ts.Name.Name, name.Name}] = mu
				}
			}
			return true
		})
	}
	return guards
}

// lockCalls returns the set of mutex names whose Lock/RLock is called
// anywhere in body, split by exclusivity: locked[mu] for Lock, rlocked
// [mu] for RLock. The mutex is identified by the final selector name
// (s.viewMu.Lock() and l.mu.Lock() register "viewMu" and "mu").
func lockCalls(body *ast.BlockStmt) (locked, rlocked map[string]bool) {
	locked, rlocked = make(map[string]bool), make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var mu string
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			mu = x.Sel.Name
		case *ast.Ident:
			mu = x.Name
		default:
			return true
		}
		switch sel.Sel.Name {
		case "Lock":
			locked[mu] = true
		case "RLock":
			rlocked[mu] = true
		}
		return true
	})
	return locked, rlocked
}

func runLockGuard(pass *Pass) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return
	}
	eachFunc(pass, func(_ *ast.File, decl *ast.FuncDecl) {
		locked, rlocked := lockCalls(decl.Body)
		var held map[string]bool
		if arg, ok := funcDirective(decl, "locked"); ok {
			held = make(map[string]bool)
			for _, mu := range strings.Fields(arg) {
				held[mu] = true
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			mu, ok := guardOf(pass, guards, sel)
			if !ok {
				return true
			}
			write := isWriteTarget(decl.Body, sel)
			switch {
			case held[mu]:
			case write && !locked[mu]:
				if rlocked[mu] {
					pass.Reportf(sel.Pos(), "write to %s (guarded by %s) under RLock only; writes need %s.Lock or //snb:locked %s", sel.Sel.Name, mu, mu, mu)
				} else {
					pass.Reportf(sel.Pos(), "write to %s without holding %s (no %s.Lock in function, no //snb:locked %s)", sel.Sel.Name, mu, mu, mu)
				}
			case !write && !locked[mu] && !rlocked[mu]:
				pass.Reportf(sel.Pos(), "read of %s without holding %s (no %s.Lock/RLock in function, no //snb:locked %s)", sel.Sel.Name, mu, mu, mu)
			}
			return true
		})
	})
}

// guardOf resolves a selector to its guarding mutex, if the selected
// field is annotated on a struct type of this package.
func guardOf(pass *Pass, guards map[guardKey]string, sel *ast.SelectorExpr) (string, bool) {
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return "", false
	}
	mu, ok := guards[guardKey{named.Obj().Name(), sel.Sel.Name}]
	return mu, ok
}

// isWriteTarget reports whether sel is (the root of) an assignment or
// inc/dec target within body.
func isWriteTarget(body *ast.BlockStmt, sel *ast.SelectorExpr) bool {
	write := false
	ast.Inspect(body, func(n ast.Node) bool {
		if write {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if containsSel(lhs, sel) {
					write = true
				}
			}
		case *ast.IncDecStmt:
			if containsSel(st.X, sel) {
				write = true
			}
		}
		return true
	})
	return write
}

// containsSel reports whether sel appears within e's selector/index
// spine (l.buf, l.buf[i], s.byKind[k] are writes to the field).
func containsSel(e ast.Expr, sel *ast.SelectorExpr) bool {
	for {
		if e == sel {
			return true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}
