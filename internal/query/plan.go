package query

import (
	"fmt"
	"strings"

	"ldbcsnb/internal/ids"
)

type opKind uint8

const (
	// opScan binds a node variable by enumerating NodesOfKind (all kinds
	// when ScanKind is zero). A scan after the first op is a cross product:
	// it runs once per input row.
	opScan opKind = iota
	// opExpand binds one endpoint of a plain edge atom from the other via
	// Out (out=true) or In, also binding the stamp variable if declared.
	opExpand
	// opCheckEdge verifies a plain edge atom whose endpoints are both
	// bound, binding its stamp variable if declared (one row per distinct
	// stamp between the endpoints).
	opCheckEdge
	// opBFS evaluates a variable-length atom by breadth-first search from
	// the bound endpoint, binding the other endpoint (check=false) or
	// verifying it (check=true); the distance variable, if declared, binds
	// the minimal hop count.
	opBFS
	// opCheckKind verifies a kind constraint on a bound variable.
	opCheckKind
	// opFilter evaluates one where-clause comparison; all its variables
	// are bound (the planner guarantees it, the property test pins it).
	opFilter
)

// planOp is one step of a streaming plan. Edge/kind ops reference their
// source atom; the executor derives operands from the atom plus the
// direction flag.
type planOp struct {
	kind     opKind
	atom     int      // index into Q.Atoms (opExpand/opCheckEdge/opBFS/opCheckKind)
	out      bool     // opExpand/opBFS: true = from Src over Out, false = from Dst over In
	check    bool     // opBFS: both endpoints already bound
	scanVar  int      // opScan: variable slot being bound
	scanKind ids.Kind // opScan: 0 = all kinds
	filter   int      // opFilter: index into Q.Filters
	// eqFilter (opBFS, bind mode, out) is the filter ?v.prop = value on
	// the node the BFS binds among the ops that follow it, -1 for none:
	// with it the executor may read the last layer from the candidates
	// (execBFS). Set by analyze; not part of the plan's string.
	eqFilter int
}

// Plan is a compiled query: a deterministic op sequence feeding the sink
// (projection, aggregation, canonical ordering, limit) described by Q's
// return/order/limit clauses.
type Plan struct {
	Q   *Query
	ops []planOp

	cols []string // result column names, shared by every execution

	// Fast-path metadata, a pure function of the AST (so plans stay
	// deterministic and cacheable). intSink is set for top-k queries whose
	// return items are all plain variables: result rows then live as int64
	// columns and heap comparisons skip value boxing entirely. fuseAt is
	// the op index of the final binding expand when everything after it is
	// an integer-shape filter and the sink is an int sink: the executor
	// runs expand + filters + top-k push as one loop (-1 = no fusion).
	intSink     bool
	icols       []int // var slot per return column (intSink only)
	fuseAt      int
	fuseFilters []int // filter indices folded into the fused loop

	// keys is Q.Orders compacted to (column, direction) pairs so the hot
	// comparison loops don't copy the full OrderKey (with its embedded
	// return item) per iteration.
	keys []sortKey
}

// sortKey is one order-by key reduced to its resolved column index and
// direction.
type sortKey struct {
	col  int
	desc bool
}

// analyze fills the fast-path metadata after the op sequence is final.
func (p *Plan) analyze() {
	q := p.Q
	p.fuseAt = -1
	p.cols = make([]string, len(q.Returns))
	for i := range q.Returns {
		p.cols[i] = printItem(q, q.Returns[i])
	}
	p.keys = make([]sortKey, len(q.Orders))
	for i := range q.Orders {
		p.keys[i] = sortKey{col: q.Orders[i].Col, desc: q.Orders[i].Desc}
	}
	for i := range p.ops {
		p.ops[i].eqFilter = p.bfsEqFilter(i)
	}
	if q.HasAggregates() || q.Limit <= 0 {
		return
	}
	for i := range q.Returns {
		if q.Returns[i].Expr.Kind != ExprVar {
			return
		}
	}
	p.intSink = true
	p.icols = make([]int, len(q.Returns))
	for i := range q.Returns {
		p.icols[i] = q.Returns[i].Expr.Var
	}
	last := -1
	for i := range p.ops {
		if p.ops[i].kind != opFilter {
			last = i
		}
	}
	if last < 0 || p.ops[last].kind != opExpand {
		return
	}
	var fused []int
	for i := last + 1; i < len(p.ops); i++ {
		f := &q.Filters[p.ops[i].filter]
		if !intFilterShape(f.Lhs) || !intFilterShape(f.Rhs) {
			return
		}
		fused = append(fused, p.ops[i].filter)
	}
	p.fuseAt, p.fuseFilters = last, fused
}

// bfsEqFilter returns the filter ?v.prop = value (value a parameter or a
// literal) on the node v a forward BFS in bind mode at op i binds, among
// the kind checks and filters settled right after it, or -1.
func (p *Plan) bfsEqFilter(i int) int {
	op := p.ops[i]
	if op.kind != opBFS || op.check || !op.out {
		return -1
	}
	v := p.Q.Atoms[op.atom].Dst.Var
	for _, next := range p.ops[i+1:] {
		if next.kind == opCheckKind {
			continue
		}
		if next.kind != opFilter {
			break
		}
		if f := &p.Q.Filters[next.filter]; f.Op == CmpEq {
			if _, _, ok := eqPropFilter(f, v); ok {
				return next.filter
			}
		}
	}
	return -1
}

// eqPropFilter splits an equality filter into the property of v it reads
// and the parameter or literal it compares it with.
func eqPropFilter(f *Filter, v int) (prop Expr, value Expr, ok bool) {
	prop, value = f.Lhs, f.Rhs
	if prop.Kind != ExprProp {
		prop, value = value, prop
	}
	ok = prop.Kind == ExprProp && prop.Var == v &&
		(value.Kind == ExprParam || value.Kind == ExprStr || value.Kind == ExprInt)
	return prop, value, ok
}

// intFilterShape reports whether one comparison side can be evaluated as a
// bare int64 (variables always hold ints; parameters are checked — and
// string parameters constant-folded — when the execution binds them).
func intFilterShape(e Expr) bool {
	return e.Kind == ExprVar || e.Kind == ExprParam || e.Kind == ExprInt
}

// Opts tunes planning.
type Opts struct {
	// Card returns an (approximate) node count for a kind, used to pick
	// the cheapest NodesOfKind-rooted scan (e.g. SnapshotView.NumOfKind
	// via Stats.View). Nil is fine: the planner is statistics-free and
	// falls back to structural tie-breaks only.
	Card func(k ids.Kind) int
}

// Compile plans a parsed query with no cardinality hints.
func Compile(q *Query) (*Plan, error) { return CompileOpts(q, Opts{}) }

// CompileOpts is the greedy statistics-free planner. It binds the most
// constrained pattern first: constant-rooted expansions before scans,
// kind-constrained scans (cheapest cardinality when Card is given) before
// all-kind scans, bound-bound checks before single-hop expansions before
// BFS expansions, and it attaches each kind check and filter at the
// earliest point where its variables are bound. Ties break on atom /
// variable index, so planning is a pure function of the AST (and the Card
// values) — the same pattern always yields the identical plan string.
//
//snb:deterministic
func CompileOpts(q *Query, opts Opts) (*Plan, error) {
	p := &Plan{Q: q}
	bound := make([]bool, len(q.Vars))
	done := make([]bool, len(q.Atoms))
	filterDone := make([]bool, len(q.Filters))

	termBound := func(t Term) bool { return t.Kind != TermVar || bound[t.Var] }
	bindTerm := func(t Term) {
		if t.Kind == TermVar {
			bound[t.Var] = true
		}
	}
	bindStamp := func(a *Atom) {
		if a.Stamp >= 0 {
			bound[a.Stamp] = true
		}
	}

	// Variables referenced by each filter, in expression order.
	fvars := make([][]int, len(q.Filters))
	for i := range q.Filters {
		fvars[i] = exprVars(q.Filters[i].Lhs, exprVars(q.Filters[i].Rhs, nil))
	}

	// settle attaches every kind check and filter whose variables just
	// became bound. Neither binds anything, so one pass per call suffices.
	settle := func() {
		for i := range q.Atoms {
			a := &q.Atoms[i]
			if a.Kind == AtomKindConstraint && !done[i] && bound[a.Var] {
				p.ops = append(p.ops, planOp{kind: opCheckKind, atom: i})
				done[i] = true
			}
		}
		for i := range q.Filters {
			if !filterDone[i] && allBound(bound, fvars[i]) {
				p.ops = append(p.ops, planOp{kind: opFilter, filter: i})
				filterDone[i] = true
			}
		}
	}
	settle() // constant-only filters run before any row is produced

	for {
		remaining := false
		for i := range done {
			if !done[i] {
				remaining = true
				break
			}
		}
		if !remaining {
			break
		}

		// Tier 1: edge atoms with both endpoints bound — pure checks.
		if i, ok := pickAtom(q, done, func(a *Atom) bool {
			return termBound(a.Src) && termBound(a.Dst)
		}); ok {
			a := &q.Atoms[i]
			if a.VarLen() {
				p.ops = append(p.ops, planOp{kind: opBFS, atom: i, out: true, check: true})
			} else {
				p.ops = append(p.ops, planOp{kind: opCheckEdge, atom: i, out: true})
			}
			done[i] = true
			bindStamp(a)
			settle()
			continue
		}

		// Tier 2: plain edge atoms with one endpoint bound — expansions.
		if i, ok := pickAtom(q, done, func(a *Atom) bool {
			return !a.VarLen() && (termBound(a.Src) || termBound(a.Dst))
		}); ok {
			a := &q.Atoms[i]
			out := termBound(a.Src)
			p.ops = append(p.ops, planOp{kind: opExpand, atom: i, out: out})
			if out {
				bindTerm(a.Dst)
			} else {
				bindTerm(a.Src)
			}
			done[i] = true
			bindStamp(a)
			settle()
			continue
		}

		// Tier 3: variable-length atoms with one endpoint bound.
		if i, ok := pickAtom(q, done, func(a *Atom) bool {
			return termBound(a.Src) || termBound(a.Dst)
		}); ok {
			a := &q.Atoms[i]
			out := termBound(a.Src)
			p.ops = append(p.ops, planOp{kind: opBFS, atom: i, out: out})
			if out {
				bindTerm(a.Dst)
			} else {
				bindTerm(a.Src)
			}
			done[i] = true
			bindStamp(a)
			settle()
			continue
		}

		// Tier 4: no resolvable endpoint — root a scan (start of a new
		// connected component, or a kind-only query).
		v, kindAtom := pickScan(q, bound, done, opts)
		if v < 0 {
			return nil, fmt.Errorf("query: planner stuck (no bindable pattern)")
		}
		op := planOp{kind: opScan, scanVar: v}
		if kindAtom >= 0 {
			op.scanKind = q.Atoms[kindAtom].NodeKind
			done[kindAtom] = true
		}
		p.ops = append(p.ops, op)
		bound[v] = true
		settle()
	}

	for v := range bound {
		if !bound[v] {
			return nil, fmt.Errorf("query: variable ?%s is never bound", q.Vars[v].Name)
		}
	}
	for i := range filterDone {
		if !filterDone[i] {
			return nil, fmt.Errorf("query: filter %d never placed", i)
		}
	}
	p.analyze()
	return p, nil
}

// pickAtom returns the lowest-index pending edge atom satisfying ok.
func pickAtom(q *Query, done []bool, ok func(a *Atom) bool) (int, bool) {
	for i := range q.Atoms {
		if done[i] || q.Atoms[i].Kind != AtomEdge {
			continue
		}
		if ok(&q.Atoms[i]) {
			return i, true
		}
	}
	return 0, false
}

// pickScan chooses the root variable for a scan: kind-constrained
// variables first (cheapest Card when hints are present), then the
// variable touching the most pending edge atoms, then the lowest variable
// index. Returns the variable and the consumed kind atom (-1 if none).
func pickScan(q *Query, bound, done []bool, opts Opts) (int, int) {
	best, bestKindAtom := -1, -1
	bestHasKind, bestCard, bestInc := false, 0, 0
	for v := range q.Vars {
		if bound[v] || q.Vars[v].Kind != VarNode {
			continue
		}
		kindAtom := -1
		for i := range q.Atoms {
			if !done[i] && q.Atoms[i].Kind == AtomKindConstraint && q.Atoms[i].Var == v {
				kindAtom = i
				break
			}
		}
		hasKind := kindAtom >= 0
		card := 0
		if hasKind && opts.Card != nil {
			card = opts.Card(q.Atoms[kindAtom].NodeKind)
		}
		inc := 0
		for i := range q.Atoms {
			a := &q.Atoms[i]
			if done[i] || a.Kind != AtomEdge {
				continue
			}
			if (a.Src.Kind == TermVar && a.Src.Var == v) || (a.Dst.Kind == TermVar && a.Dst.Var == v) {
				inc++
			}
		}
		better := false
		switch {
		case best < 0:
			better = true
		case hasKind != bestHasKind:
			better = hasKind
		case hasKind && opts.Card != nil && card != bestCard:
			better = card < bestCard
		case inc != bestInc:
			better = inc > bestInc
		}
		if better {
			best, bestKindAtom, bestHasKind, bestCard, bestInc = v, kindAtom, hasKind, card, inc
		}
	}
	return best, bestKindAtom
}

func exprVars(e Expr, dst []int) []int {
	if e.Kind == ExprVar || e.Kind == ExprProp {
		dst = append(dst, e.Var)
	}
	return dst
}

func allBound(bound []bool, vars []int) bool {
	for _, v := range vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

// String renders the plan, one numbered op per line plus the sink. The
// string is a pure function of the AST and planning inputs; the
// determinism property test pins it.
func (p *Plan) String() string {
	var sb strings.Builder
	q := p.Q
	for i, op := range p.ops {
		fmt.Fprintf(&sb, "%d. ", i+1)
		switch op.kind {
		case opScan:
			sb.WriteString("scan ?")
			sb.WriteString(q.Vars[op.scanVar].Name)
			if op.scanKind != 0 {
				sb.WriteString(" : ")
				sb.WriteString(op.scanKind.String())
			}
		case opExpand:
			if op.out {
				sb.WriteString("expand-out ")
			} else {
				sb.WriteString("expand-in ")
			}
			printAtom(&sb, q, &q.Atoms[op.atom])
		case opCheckEdge:
			sb.WriteString("check ")
			printAtom(&sb, q, &q.Atoms[op.atom])
		case opBFS:
			switch {
			case op.check:
				sb.WriteString("bfs-check ")
			case op.out:
				sb.WriteString("bfs-out ")
			default:
				sb.WriteString("bfs-in ")
			}
			printAtom(&sb, q, &q.Atoms[op.atom])
		case opCheckKind:
			sb.WriteString("kind ")
			printAtom(&sb, q, &q.Atoms[op.atom])
		case opFilter:
			f := &q.Filters[op.filter]
			sb.WriteString("filter ")
			printExpr(&sb, q, f.Lhs)
			sb.WriteByte(' ')
			sb.WriteString(f.Op.String())
			sb.WriteByte(' ')
			printExpr(&sb, q, f.Rhs)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d. sink return ", len(p.ops)+1)
	for i := range q.Returns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(printItem(q, q.Returns[i]))
	}
	if len(q.Orders) > 0 {
		sb.WriteString(" order by ")
		for i := range q.Orders {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(printItem(q, q.Orders[i].Item))
			if q.Orders[i].Desc {
				sb.WriteString(" desc")
			} else {
				sb.WriteString(" asc")
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " limit %d", q.Limit)
	}
	sb.WriteByte('\n')
	return sb.String()
}
