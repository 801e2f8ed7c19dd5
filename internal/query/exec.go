package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// MaxResultRows bounds materialized results (rows of an unlimited query,
// groups of an aggregation) so an ad-hoc cross product cannot exhaust the
// process. Top-k queries are bounded by their limit instead.
const MaxResultRows = 1 << 20

// Params carries the $parameter bindings of one execution.
type Params map[string]store.Value

// Result is one executed query's materialized result. Rows never alias
// store or scratch memory; they are safe to retain. Rows are always in the
// canonical order (order-by keys, then every column ascending).
type Result struct {
	Cols []string
	Rows [][]store.Value
}

// String renders the result as a compact table (header + one row per line,
// tab-separated), mainly for snb-run -query output.
func (res *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "\t"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			switch {
			case v.IsInt():
				fmt.Fprintf(&sb, "%d", v.Int())
			case v.IsStr():
				fmt.Fprintf(&sb, "%q", v.Str())
			default:
				sb.WriteString("-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Scratch is the reusable per-goroutine execution state of the query
// layer, composed over workload.Scratch (same ownership and aliasing
// rules: one goroutine, sequential reuse across views is the intended
// pattern). Per-operator deduplication state and aggregation groups live
// in workload.KeyTables, whose resets are O(1), so the hot structures stay
// warm across prefixes and queries; buffers only grow.
type Scratch struct {
	W *workload.Scratch

	states []opState
	spare  []store.Value            // projection buffer, cloned only when a row is kept
	groups workload.KeyTable[int32] // aggregation: group-key hash -> newest group

	row   []int64       // variable bindings, one slot per variable
	pv    []store.Value // parameter values by parameter index
	pint  []int64       // integer content of parameters used as endpoints
	ff    []fusedFilter // runtime filters of the fused tail loop
	iback []int64       // int-sink row arena
	iheap []int32       // int-sink heap of arena slots

	lastHop        hopSide // which side execBFS reads a last layer from; tests force one
	fromCandidates int     // last layers read from the candidates, for tests
}

// hopSide picks the side execBFS reads a BFS's last layer from: hopChoose
// decides per binding; the others force a side where both are possible.
type hopSide uint8

const (
	hopChoose hopSide = iota
	hopForward
	hopCandidates
)

// NewScratch returns an empty query scratch with its own workload scratch.
func NewScratch() *Scratch { return WrapScratch(workload.NewScratch()) }

// WrapScratch composes a query scratch over an existing workload scratch
// (e.g. a server connection's), so both serve the same goroutine.
func WrapScratch(w *workload.Scratch) *Scratch { return &Scratch{W: w} }

// opState is the pooled state of one plan position: the dedup set of the
// values it emits per input prefix, BFS queue and the check-edge stamp
// buffer. Ops form a linear pipeline, so a position can never re-enter
// itself recursively and one state per position is safe.
//
// The dedup set keys on node IDs, so it is identical on both read paths.
// It keeps the first stamp a node was emitted with; further stamps of the
// same node, from parallel edges, spill into over.
type opState struct {
	seen   workload.KeyTable[int64] // node ID -> first emitted stamp
	over   []overEntry
	queue  []ids.ID
	ends   []int // BFS: queue[ends[d-1]:ends[d]] is depth d
	stamps []int64
	into   []store.Edge // edgesInto's row
}

type overEntry struct {
	id    ids.ID
	stamp int64
}

// beginPrefix empties the dedup set for the next input prefix.
func (st *opState) beginPrefix() {
	st.seen.Reset()
	st.over = st.over[:0]
}

// tryMark reports whether id is new in the current prefix.
func (st *opState) tryMark(id ids.ID) bool {
	_, added := st.seen.At(uint64(id))
	return added
}

// tryMarkStamp reports whether (id, stamp) is new in the current prefix.
func (st *opState) tryMarkStamp(id ids.ID, stamp int64) bool {
	first, added := st.seen.At(uint64(id))
	if added {
		*first = stamp
		return true
	}
	e := overEntry{id: id, stamp: stamp}
	if *first == stamp || slices.Contains(st.over, e) {
		return false
	}
	st.over = append(st.over, e)
	return true
}

// execCtx is the per-run state of one execution, generic over the reader.
type execCtx[R store.Reader] struct {
	r    R
	p    *Plan
	q    *Query
	sc   *Scratch
	row  []int64       // one slot per variable (scratch-backed)
	pv   []store.Value // parameter values by parameter index
	pint []int64       // integer content of parameters used as endpoints
	ff   []fusedFilter // runtime form of p.fuseFilters (params folded in)
	snk  sink
}

// fusedFilter is one trailing filter of the fused tail loop with its
// parameters bound: a bare int64 comparison against either another row
// slot or a constant. Non-integer parameters constant-fold (an integer
// never equals a string) into pass/drop.
type fusedFilter struct {
	mode byte // ffCmp, ffPass or ffDrop
	op   CmpOp
	lv   int   // row slot of the left side
	rv   int   // row slot of the right side, -1 = constant
	rc   int64 // constant right side (rv < 0)
}

const (
	ffCmp byte = iota
	ffPass
	ffDrop
)

// intCmp evaluates one comparison over bare int64s.
func intCmp(op CmpOp, a, b int64) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	default: // CmpGe
		return a >= b
	}
}

// mirrorCmp flips a comparison for operand exchange (a < b == b > a).
func mirrorCmp(op CmpOp) CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

// bindFusedFilter lowers one fused filter to its runtime form. At least
// one side is a variable (constant-only filters are settled before any op
// runs); variables always hold int64s, so a non-integer parameter on the
// other side makes equality constantly false and ordering vacuous.
func bindFusedFilter(q *Query, pv []store.Value, fi int) fusedFilter {
	f := &q.Filters[fi]
	lhs, rhs, op := f.Lhs, f.Rhs, f.Op
	if lhs.Kind != ExprVar {
		lhs, rhs, op = rhs, lhs, mirrorCmp(op)
	}
	ff := fusedFilter{op: op, lv: lhs.Var, rv: -1}
	switch rhs.Kind {
	case ExprVar:
		ff.rv = rhs.Var
	case ExprInt:
		ff.rc = rhs.Int
	default: // ExprParam
		v := pv[rhs.Param]
		if !v.IsInt() {
			if op == CmpNe {
				ff.mode = ffPass
			} else {
				ff.mode = ffDrop
			}
			return ff
		}
		ff.rc = v.Int()
	}
	return ff
}

// Run executes a compiled plan against either reader instantiation.
// Results are identical between *store.Txn and *store.SnapshotView at the
// same snapshot timestamp (the differential suite pins this). On a view
// derived via WithCancel, cancellation propagates through the reader's
// poll hook; use RunViewCtx to get it mapped onto an error.
func Run[R store.Reader](r R, sc *Scratch, p *Plan, params Params) (*Result, error) {
	sc.W.Begin()
	q := p.Q
	var ec execCtx[R]
	ec.r, ec.p, ec.q, ec.sc = r, p, q, sc

	if cap(sc.pv) < len(q.Params) {
		sc.pv = make([]store.Value, len(q.Params))
		sc.pint = make([]int64, len(q.Params))
	}
	ec.pv = sc.pv[:len(q.Params)]
	ec.pint = sc.pint[:len(q.Params)]
	for i, name := range q.Params {
		v, ok := params[name]
		if !ok {
			return nil, fmt.Errorf("query: missing parameter $%s", name)
		}
		ec.pv[i] = v
	}
	for i := range q.Atoms {
		a := &q.Atoms[i]
		if a.Kind != AtomEdge {
			continue
		}
		for _, t := range [2]Term{a.Src, a.Dst} {
			if t.Kind == TermParam {
				if !ec.pv[t.Param].IsInt() {
					return nil, fmt.Errorf("query: parameter $%s is used as a node and must be an integer ID", q.Params[t.Param])
				}
				ec.pint[t.Param] = ec.pv[t.Param].Int()
			}
		}
	}

	if cap(sc.row) < len(q.Vars) {
		sc.row = make([]int64, len(q.Vars))
	}
	ec.row = sc.row[:len(q.Vars)]
	if len(sc.states) < len(p.ops) {
		sc.states = append(sc.states, make([]opState, len(p.ops)-len(sc.states))...)
	}
	if cap(sc.spare) < len(q.Returns) {
		sc.spare = make([]store.Value, len(q.Returns))
	}
	if p.fuseAt >= 0 {
		sc.ff = sc.ff[:0]
		for _, fi := range p.fuseFilters {
			sc.ff = append(sc.ff, bindFusedFilter(q, ec.pv, fi))
		}
		ec.ff = sc.ff
	}
	ec.snk.init(p, sc)

	if err := ec.exec(0); err != nil {
		return nil, err
	}
	res := ec.snk.finalize()
	sc.iback = ec.snk.iback[:0]
	sc.iheap = ec.snk.iheap[:0]
	return res, nil
}

// RunViewCtx executes on the lock-free view path with cooperative
// cancellation: the reader polls ctx through the store's WithCancel hook
// and an expired deadline surfaces as store.ErrQueryCanceled.
func RunViewCtx(ctx context.Context, v *store.SnapshotView, sc *Scratch, p *Plan, params Params) (res *Result, err error) {
	defer store.CatchCanceled(&err)
	res, err = Run(v.WithCancel(ctx), sc, p, params)
	return res, err
}

func (ec *execCtx[R]) termVal(t Term) int64 {
	switch t.Kind {
	case TermVar:
		return ec.row[t.Var]
	case TermParam:
		return ec.pint[t.Param]
	default:
		return t.Int
	}
}

func (ec *execCtx[R]) evalExpr(e Expr) store.Value {
	switch e.Kind {
	case ExprVar:
		return store.Int64(ec.row[e.Var])
	case ExprProp:
		return ec.r.Prop(ids.ID(uint64(ec.row[e.Var])), e.Prop)
	case ExprParam:
		return ec.pv[e.Param]
	case ExprInt:
		return store.Int64(e.Int)
	default:
		return store.String(e.Str)
	}
}

// exec runs the pipeline from op i for the current row prefix.
func (ec *execCtx[R]) exec(i int) error {
	if i == len(ec.p.ops) {
		if ec.snk.intMode {
			ec.snk.addInt(ec.row)
			return nil
		}
		return ec.emit()
	}
	op := ec.p.ops[i]
	switch op.kind {
	case opScan:
		return ec.execScan(i, op)
	case opExpand:
		if i == ec.p.fuseAt {
			return ec.execFused(i, op)
		}
		return ec.execExpand(i, op)
	case opCheckEdge:
		return ec.execCheckEdge(i, op)
	case opBFS:
		return ec.execBFS(i, op)
	case opCheckKind:
		a := &ec.q.Atoms[op.atom]
		if ids.ID(uint64(ec.row[a.Var])).Kind() == a.NodeKind {
			return ec.exec(i + 1)
		}
		return nil
	default: // opFilter
		f := &ec.q.Filters[op.filter]
		if filterHolds(f.Op, ec.evalExpr(f.Lhs), ec.evalExpr(f.Rhs)) {
			return ec.exec(i + 1)
		}
		return nil
	}
}

func (ec *execCtx[R]) execScan(i int, op planOp) error {
	lo, hi := op.scanKind, op.scanKind
	if op.scanKind == 0 {
		lo, hi = ids.KindPerson, ids.KindPhoto
	}
	for k := lo; k <= hi; k++ {
		for _, id := range ec.r.NodesOfKind(k) {
			ec.row[op.scanVar] = int64(uint64(id))
			if err := ec.exec(i + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ec *execCtx[R]) execExpand(i int, op planOp) error {
	a := &ec.q.Atoms[op.atom]
	st := &ec.sc.states[i]
	st.beginPrefix()
	var from int64
	var toVar int
	if op.out {
		from, toVar = ec.termVal(a.Src), a.Dst.Var
	} else {
		from, toVar = ec.termVal(a.Dst), a.Src.Var
	}
	var edges []store.Edge
	if op.out {
		edges = ec.r.Out(ids.ID(uint64(from)), a.Edge)
	} else {
		edges = ec.edgesInto(st, ids.ID(uint64(from)), a.Edge)
	}
	for _, e := range edges {
		if a.Stamp >= 0 {
			if !st.tryMarkStamp(e.To, e.Stamp) {
				continue
			}
			ec.row[a.Stamp] = e.Stamp
		} else if !st.tryMark(e.To) {
			continue
		}
		ec.row[toVar] = int64(uint64(e.To))
		if err := ec.exec(i + 1); err != nil {
			return err
		}
	}
	return nil
}

// execFused is the fused tail loop: the plan's final binding expand, its
// trailing integer filters and the int-sink top-k push in one pass, with
// no per-candidate recursion or value boxing. The heap rejection runs
// BEFORE deduplication: the acceptance threshold only tightens over a
// run, so a duplicate of a rejected candidate is rejected by the same
// compare and needs no dedup entry — on a saturated heap most candidates
// touch nothing but the filter slots and the heap root.
func (ec *execCtx[R]) execFused(i int, op planOp) error {
	a := &ec.q.Atoms[op.atom]
	st := &ec.sc.states[i]
	st.beginPrefix()
	var from int64
	var toVar int
	if op.out {
		from, toVar = ec.termVal(a.Src), a.Dst.Var
	} else {
		from, toVar = ec.termVal(a.Dst), a.Src.Var
	}
	var edges []store.Edge
	if op.out {
		edges = ec.r.Out(ids.ID(uint64(from)), a.Edge)
	} else {
		edges = ec.edgesInto(st, ids.ID(uint64(from)), a.Edge)
	}
	row := ec.row
outer:
	for _, e := range edges {
		row[toVar] = int64(uint64(e.To))
		if a.Stamp >= 0 {
			row[a.Stamp] = e.Stamp
		}
		for _, f := range ec.ff {
			switch f.mode {
			case ffPass:
				continue
			case ffDrop:
				continue outer
			}
			rhs := f.rc
			if f.rv >= 0 {
				rhs = row[f.rv]
			}
			if !intCmp(f.op, row[f.lv], rhs) {
				continue outer
			}
		}
		if ec.snk.wouldRejectInt(row) {
			continue
		}
		if a.Stamp >= 0 {
			if !st.tryMarkStamp(e.To, e.Stamp) {
				continue
			}
		} else if !st.tryMark(e.To) {
			continue
		}
		ec.snk.addInt(row)
	}
	return nil
}

func (ec *execCtx[R]) execCheckEdge(i int, op planOp) error {
	a := &ec.q.Atoms[op.atom]
	src := ids.ID(uint64(ec.termVal(a.Src)))
	dst := ec.termVal(a.Dst)
	edges := ec.r.Out(src, a.Edge)
	if a.Stamp < 0 {
		for _, e := range edges {
			if int64(uint64(e.To)) == dst {
				return ec.exec(i + 1)
			}
		}
		return nil
	}
	st := &ec.sc.states[i]
	st.stamps = st.stamps[:0]
	for _, e := range edges {
		if int64(uint64(e.To)) != dst {
			continue
		}
		dup := false
		for _, s := range st.stamps {
			if s == e.Stamp {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		st.stamps = append(st.stamps, e.Stamp)
		ec.row[a.Stamp] = e.Stamp
		if err := ec.exec(i + 1); err != nil {
			return err
		}
	}
	return nil
}

// edgesInto returns one entry (x, stamp) per edge x -t-> n: n's In row, or
// for knows, whose edges are symmetric and listed at both ends' Out rows,
// store.Into's row in st's buffer.
func (ec *execCtx[R]) edgesInto(st *opState, n ids.ID, t store.EdgeType) []store.Edge {
	if t != store.EdgeKnows {
		return ec.r.In(n, t)
	}
	st.into = store.Into(ec.r, ec.r.Resolve(n), t, st.into)
	return st.into
}

// execBFS evaluates a variable-length atom: layered BFS from the bound
// endpoint; a node's discovery depth is its minimal hop distance. In check
// mode the search stops when the (bound) target is discovered, which is
// satisfied only if that minimal depth lies in the range. In bind mode
// every node at depth in [min, max] binds the free endpoint: the BFS walks
// the ball of radius max-1, and the last layer comes either forward, from
// the ball's outer layer, or from the candidates (bfsFromCandidates).
func (ec *execCtx[R]) execBFS(i int, op planOp) error {
	a := &ec.q.Atoms[op.atom]
	st := &ec.sc.states[i]
	st.beginPrefix()
	if op.check {
		return ec.execBFSCheck(i, op, a, st)
	}
	from, toVar := ec.termVal(a.Dst), a.Src.Var
	if op.out {
		from, toVar = ec.termVal(a.Src), a.Dst.Var
	}

	queue := st.queue[:0]
	start := ids.ID(uint64(from))
	st.tryMark(start)
	queue = append(queue, start)
	st.ends = append(st.ends[:0], 1)
	for lo := 0; len(st.ends) < a.MaxHops && lo < len(queue); {
		for hi := len(queue); lo < hi; lo++ {
			for _, e := range ec.hop(st, queue[lo], a.Edge, op.out) {
				if st.tryMark(e.To) {
					queue = append(queue, e.To)
				}
			}
		}
		st.ends = append(st.ends, len(queue))
	}
	st.queue = queue

	if done, err := ec.bfsFromCandidates(i, op, a, st, toVar); done {
		return err
	}
	for d := a.MinHops; d < len(st.ends); d++ {
		for _, n := range queue[st.ends[d-1]:st.ends[d]] {
			if err := ec.bindBFS(i, a, toVar, n, d); err != nil {
				return err
			}
		}
	}
	if len(st.ends) < a.MaxHops {
		return nil
	}
	for _, n := range st.outer() {
		for _, e := range ec.hop(st, n, a.Edge, op.out) {
			if !st.tryMark(e.To) {
				continue
			}
			if err := ec.bindBFS(i, a, toVar, e.To, a.MaxHops); err != nil {
				return err
			}
		}
	}
	return nil
}

// hop returns a BFS node's row in the search's direction.
func (ec *execCtx[R]) hop(st *opState, n ids.ID, t store.EdgeType, out bool) []store.Edge {
	if out {
		return ec.r.Out(n, t)
	}
	return ec.edgesInto(st, n, t)
}

// bindBFS binds the BFS's free endpoint to n at distance d and runs the
// rest of the pipeline.
func (ec *execCtx[R]) bindBFS(i int, a *Atom, toVar int, n ids.ID, d int) error {
	ec.row[toVar] = int64(uint64(n))
	if a.Stamp >= 0 {
		ec.row[a.Stamp] = int64(d)
	}
	return ec.exec(i + 1)
}

// bfsFromCandidates binds the nodes a forward BFS in bind mode reaches
// from the candidates of the filter ?v.prop = value that follows it
// (planOp.eqFilter): the nodes of every kind that may carry prop
// (SnapshotView.KindHasProp), since a node without prop fails = against a
// concrete value. A candidate in the ball has the depth of its layer; one
// outside it is at distance max iff some node of the ball has an edge to
// it (store.IntoFrom; that node is at depth max-1, or the candidate would
// be in the ball).
// It runs on a view, when scanning the candidates reads fewer nodes than
// expanding the ball's outer layer reads entries, and reports whether it
// ran.
func (ec *execCtx[R]) bfsFromCandidates(i int, op planOp, a *Atom, st *opState, toVar int) (bool, error) {
	v, ok := any(ec.r).(*store.SnapshotView)
	if !ok || op.eqFilter < 0 || ec.sc.lastHop == hopForward {
		return false, nil
	}
	prop, value, _ := eqPropFilter(&ec.q.Filters[op.eqFilter], toVar)
	want := ec.evalExpr(value)
	if want.IsZero() {
		return false, nil
	}
	n := 0
	for k := range ids.KindLimit {
		if v.KindHasProp(k, prop.Prop) {
			n += v.NumOfKind(k)
		}
	}
	if ec.sc.lastHop == hopChoose && !layerReadsMore(v, st.outer(), a.Edge, n) {
		return false, nil
	}
	ec.sc.fromCandidates++
	for k := range ids.KindLimit {
		if !v.KindHasProp(k, prop.Prop) {
			continue
		}
		scan := v.ScanKind(k)
		for j := range scan.Len() {
			c := scan.At(j)
			if v.PropOf(c, prop.Prop) != want {
				continue
			}
			d := st.depth(c.ID())
			if d < 0 && len(st.ends) == a.MaxHops && store.IntoFrom(v, c, a.Edge, st.holds) {
				d = a.MaxHops
			}
			if d < a.MinHops {
				continue
			}
			if err := ec.bindBFS(i, a, toVar, c.ID(), d); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

// outer returns the BFS's outer layer: the nodes at the ball's radius.
//
//snb:noalloc
func (st *opState) outer() []ids.ID {
	lo, n := 0, len(st.ends)
	if n > 1 {
		lo = st.ends[n-2]
	}
	return st.queue[lo:st.ends[n-1]]
}

// depth returns a node's depth in the BFS's ball, -1 outside it.
//
//snb:noalloc
func (st *opState) depth(id ids.ID) int {
	pos := st.seen.Pos(uint64(id))
	if pos < 0 {
		return -1
	}
	d := 0
	for pos >= st.ends[d] {
		d++
	}
	return d
}

// holds reports whether a node is in the BFS's ball.
func (st *opState) holds(id ids.ID) bool { return st.seen.Find(uint64(id)) != nil }

// layerReadsMore reports whether expanding a layer reads more entries than
// n: the layer's out-degrees summed, stopping once the sum passes n.
//
//snb:noalloc
func layerReadsMore(v *store.SnapshotView, layer []ids.ID, t store.EdgeType, n int) bool {
	sum := 0
	for _, x := range layer {
		if sum += v.OutDegree(x, t); sum > n {
			return true
		}
	}
	return false
}

// execBFSCheck is execBFS in check mode: the BFS stops at the target.
func (ec *execCtx[R]) execBFSCheck(i int, op planOp, a *Atom, st *opState) error {
	from, target := ec.termVal(a.Dst), ec.termVal(a.Src)
	if op.out {
		from, target = ec.termVal(a.Src), ec.termVal(a.Dst)
	}
	start := ids.ID(uint64(from))
	st.tryMark(start)
	st.queue = append(st.queue[:0], start)
	for lo, depth := 0, 1; depth <= a.MaxHops && lo < len(st.queue); depth++ {
		for hi := len(st.queue); lo < hi; lo++ {
			for _, e := range ec.hop(st, st.queue[lo], a.Edge, op.out) {
				if !st.tryMark(e.To) {
					continue
				}
				if int64(uint64(e.To)) != target {
					st.queue = append(st.queue, e.To)
					continue
				}
				if depth < a.MinHops {
					return nil
				}
				if a.Stamp >= 0 {
					ec.row[a.Stamp] = int64(depth)
				}
				return ec.exec(i + 1)
			}
		}
	}
	return nil
}

// emit projects the current full assignment into the sink.
func (ec *execCtx[R]) emit() error {
	q := ec.q
	spare := ec.sc.spare[:len(q.Returns)]
	for i := range q.Returns {
		it := &q.Returns[i]
		if it.Agg != AggNone {
			if it.Star {
				spare[i] = store.Value{}
			} else {
				spare[i] = ec.evalExpr(it.Expr)
			}
			continue
		}
		spare[i] = ec.evalExpr(it.Expr)
	}
	return ec.snk.add(q, spare)
}

// filterHolds evaluates one comparison. Equality is structural (interned
// strings make equal content equal bits); ordering requires both sides to
// be present and of the same kind, and orders strings by content, not
// symbol.
func filterHolds(op CmpOp, a, b store.Value) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	}
	var c int
	switch {
	case a.IsInt() && b.IsInt():
		switch {
		case a.Int() < b.Int():
			c = -1
		case a.Int() > b.Int():
			c = 1
		}
	case a.IsStr() && b.IsStr():
		c = strings.Compare(a.Str(), b.Str())
	default:
		return false
	}
	switch op {
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	default: // CmpGe
		return c >= 0
	}
}

// compareVal is the canonical total order over values: absent < integers <
// strings; integers numerically, strings by content (symbols are interning
// order, not content order).
func compareVal(a, b store.Value) int {
	ra, rb := valRank(a), valRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 1:
		switch {
		case a.Int() < b.Int():
			return -1
		case a.Int() > b.Int():
			return 1
		}
		return 0
	case 2:
		if a.Sym() == b.Sym() {
			return 0
		}
		return strings.Compare(a.Str(), b.Str())
	default:
		return 0
	}
}

func valRank(v store.Value) int {
	switch {
	case v.IsInt():
		return 1
	case v.IsStr():
		return 2
	default:
		return 0
	}
}

// compareRows is the canonical row order: order-by keys first, then every
// column ascending, so any two distinct rows compare unequal and results
// are deterministic regardless of enumeration order.
func compareRows(keys []sortKey, a, b []store.Value) int {
	for _, k := range keys {
		if c := compareVal(a[k.col], b[k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	for i := range a {
		if c := compareVal(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// sink accumulates projected rows: a bounded worst-at-root heap for
// order+limit queries (over int64 columns in a scratch-backed arena when
// the plan's int fast path applies), plain materialization otherwise, or
// grouped accumulators when aggregating.
type sink struct {
	q      *Query
	agg    bool
	limit  int
	cols   []string // result column names (shared with the plan)
	rows   [][]store.Value
	groups *workload.KeyTable[int32] // group-key hash -> its newest group
	glist  []aggGroup                // groups in first-seen order

	// Int fast path (Plan.intSink): result rows are nc int64 columns in
	// iback; iheap orders arena slots, worst at the root.
	intMode bool
	icols   []int
	nc      int
	iback   []int64
	iheap   []int32

	// keys is the plan's compact (column, direction) order-by form; the
	// comparison loops use it instead of Q.Orders to avoid copying the
	// full OrderKey per iteration.
	keys []sortKey
}

// aggGroup is one aggregation group: the projected row that opened it
// (its non-aggregate columns are the group key) and one accumulator per
// column. Groups whose key hashes collide are chained through next.
type aggGroup struct {
	keys []store.Value
	accs []int64
	next int32 // index in glist of an older group with the same hash, or -1
}

func (s *sink) init(p *Plan, sc *Scratch) {
	q := p.Q
	s.q = q
	s.agg = q.HasAggregates()
	s.limit = q.Limit
	s.rows = nil
	s.intMode = false
	s.cols = p.cols
	s.keys = p.keys
	if s.agg {
		sc.groups.Reset()
		s.groups, s.glist = &sc.groups, nil
		return
	}
	if p.intSink {
		s.intMode = true
		s.icols = p.icols
		s.nc = len(q.Returns)
		s.iback = sc.iback[:0]
		s.iheap = sc.iheap[:0]
	}
}

// cmpSlots is the canonical row order between two arena slots.
func (s *sink) cmpSlots(x, y int32) int {
	ox, oy := int(x)*s.nc, int(y)*s.nc
	for _, k := range s.keys {
		a, b := s.iback[ox+k.col], s.iback[oy+k.col]
		if a != b {
			if (a < b) != k.desc {
				return -1
			}
			return 1
		}
	}
	for j := 0; j < s.nc; j++ {
		a, b := s.iback[ox+j], s.iback[oy+j]
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// cmpSlotRow compares a stored arena slot against an unprojected candidate
// (variable bindings indirected through icols).
func (s *sink) cmpSlotRow(slot int32, row []int64) int {
	off := int(slot) * s.nc
	for _, k := range s.keys {
		a, b := s.iback[off+k.col], row[s.icols[k.col]]
		if a != b {
			if (a < b) != k.desc {
				return -1
			}
			return 1
		}
	}
	for j := 0; j < s.nc; j++ {
		a, b := s.iback[off+j], row[s.icols[j]]
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// wouldRejectInt reports a saturated heap whose worst row is no worse than
// the candidate — the candidate cannot enter the result.
func (s *sink) wouldRejectInt(row []int64) bool {
	return len(s.iheap) >= s.limit && s.cmpSlotRow(s.iheap[0], row) <= 0
}

// addInt pushes one candidate into the int top-k heap.
func (s *sink) addInt(row []int64) {
	if len(s.iheap) < s.limit {
		slot := int32(len(s.iheap))
		for _, c := range s.icols {
			s.iback = append(s.iback, row[c])
		}
		s.iheap = append(s.iheap, slot)
		i := len(s.iheap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if s.cmpSlots(s.iheap[i], s.iheap[parent]) <= 0 {
				break
			}
			s.iheap[i], s.iheap[parent] = s.iheap[parent], s.iheap[i]
			i = parent
		}
		return
	}
	if s.cmpSlotRow(s.iheap[0], row) <= 0 {
		return
	}
	off := int(s.iheap[0]) * s.nc
	for j, c := range s.icols {
		s.iback[off+j] = row[c]
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(s.iheap) && s.cmpSlots(s.iheap[l], s.iheap[largest]) > 0 {
			largest = l
		}
		if r < len(s.iheap) && s.cmpSlots(s.iheap[r], s.iheap[largest]) > 0 {
			largest = r
		}
		if largest == i {
			return
		}
		s.iheap[i], s.iheap[largest] = s.iheap[largest], s.iheap[i]
		i = largest
	}
}

func (s *sink) add(q *Query, row []store.Value) error {
	if s.agg {
		return s.addGroup(q, row)
	}
	if s.limit > 0 {
		s.pushTopK(q, row)
		return nil
	}
	if len(s.rows) >= MaxResultRows {
		return fmt.Errorf("query: result exceeds %d rows (add a limit)", MaxResultRows)
	}
	s.rows = append(s.rows, append([]store.Value(nil), row...))
	return nil
}

// pushTopK keeps the limit best rows under the canonical order in a
// max-heap (worst row at the root). Once the heap is full, a replacement
// copies into the evicted row's backing array, so a saturated heap
// allocates nothing per candidate.
func (s *sink) pushTopK(q *Query, row []store.Value) {
	if len(s.rows) < s.limit {
		s.rows = append(s.rows, append([]store.Value(nil), row...))
		// Sift up.
		i := len(s.rows) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if compareRows(s.keys, s.rows[i], s.rows[parent]) <= 0 {
				break
			}
			s.rows[i], s.rows[parent] = s.rows[parent], s.rows[i]
			i = parent
		}
		return
	}
	if compareRows(s.keys, row, s.rows[0]) >= 0 {
		return
	}
	s.rows[0] = append(s.rows[0][:0], row...)
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(s.rows) && compareRows(s.keys, s.rows[l], s.rows[largest]) > 0 {
			largest = l
		}
		if r < len(s.rows) && compareRows(s.keys, s.rows[r], s.rows[largest]) > 0 {
			largest = r
		}
		if largest == i {
			return
		}
		s.rows[i], s.rows[largest] = s.rows[largest], s.rows[i]
		i = largest
	}
}

// addGroup folds one projected row into its group. Groups are found by a
// hash of the group key and verified against the group's stored key, so
// two keys with one hash open two groups.
func (s *sink) addGroup(q *Query, row []store.Value) error {
	head, added := s.groups.At(groupHash(q, row))
	next := int32(-1)
	if !added {
		for i := *head; i >= 0; i = s.glist[i].next {
			if sameGroup(q, s.glist[i].keys, row) {
				s.glist[i].fold(q, row)
				return nil
			}
		}
		next = *head
	}
	if len(s.glist) >= MaxResultRows {
		return fmt.Errorf("query: aggregation exceeds %d groups", MaxResultRows)
	}
	*head = int32(len(s.glist))
	s.glist = append(s.glist, aggGroup{keys: slices.Clone(row), accs: make([]int64, len(row)), next: next})
	s.glist[len(s.glist)-1].fold(q, row)
	return nil
}

func (g *aggGroup) fold(q *Query, row []store.Value) {
	for i := range q.Returns {
		it := &q.Returns[i]
		switch it.Agg {
		case AggCount:
			if it.Star || !row[i].IsZero() {
				g.accs[i]++
			}
		case AggSum:
			g.accs[i] += row[i].Int()
		}
	}
}

// groupHash hashes the group key: the plain (non-aggregate) return
// columns. Symbols are stable within a process, so equal strings hash
// equal.
func groupHash(q *Query, row []store.Value) uint64 {
	var h uint64
	for i := range q.Returns {
		if q.Returns[i].Agg != AggNone {
			continue
		}
		v := row[i]
		w := uint64(v.Int())
		switch {
		case v.IsStr():
			w = uint64(v.Sym()) ^ 1<<63
		case v.IsZero():
			w = 1<<63 - 1
		}
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// sameGroup reports whether two projected rows share a group key.
func sameGroup(q *Query, a, b []store.Value) bool {
	for i := range q.Returns {
		if q.Returns[i].Agg == AggNone && a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *sink) finalize() *Result {
	q := s.q
	res := &Result{Cols: s.cols}
	if s.intMode {
		sort.Slice(s.iheap, func(i, j int) bool { return s.cmpSlots(s.iheap[i], s.iheap[j]) < 0 })
		back := make([]store.Value, len(s.iheap)*s.nc)
		res.Rows = make([][]store.Value, len(s.iheap))
		for i, slot := range s.iheap {
			off := int(slot) * s.nc
			r := back[i*s.nc : (i+1)*s.nc : (i+1)*s.nc]
			for j := 0; j < s.nc; j++ {
				r[j] = store.Int64(s.iback[off+j])
			}
			res.Rows[i] = r
		}
		return res
	}
	if s.agg {
		// A group's key row becomes its result row: the run owns it.
		rows := make([][]store.Value, 0, len(s.glist))
		for _, g := range s.glist {
			for i := range q.Returns {
				if q.Returns[i].Agg != AggNone {
					g.keys[i] = store.Int64(g.accs[i])
				}
			}
			rows = append(rows, g.keys)
		}
		s.rows = rows
	}
	sort.Slice(s.rows, func(i, j int) bool { return compareRows(s.keys, s.rows[i], s.rows[j]) < 0 })
	if q.Limit > 0 && len(s.rows) > q.Limit {
		s.rows = s.rows[:q.Limit]
	}
	res.Rows = s.rows
	return res
}
