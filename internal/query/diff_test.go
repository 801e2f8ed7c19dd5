package query

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// ---------------------------------------------------------------------------
// Reference evaluator
//
// refEval is a deliberately naive second implementation of the language
// semantics: enumerate variable assignments in declaration order by nested
// loops, check every pattern and filter the moment its variables are all
// assigned, then project / aggregate / sort / limit the surviving
// assignments with its own code. It shares nothing with the planner or the
// executor beyond the AST and the Reader — disagreement between the two is
// a bug in one of them.
// ---------------------------------------------------------------------------

type refEvaluator struct {
	r      store.Reader
	q      *Query
	params Params
	all    []ids.ID // every node in the graph, all kinds
	assign []int64
	rows   [][]store.Value
}

func refEval(t *testing.T, r store.Reader, q *Query, params Params) [][]store.Value {
	t.Helper()
	ev := &refEvaluator{r: r, q: q, params: params}
	for k := ids.KindPerson; k <= ids.KindPhoto; k++ {
		ev.all = append(ev.all, r.ScanKind(k).IDs()...)
	}
	ev.assign = make([]int64, len(q.Vars))
	// Constraints with no variables hold or fail for the whole query.
	if !ev.checkAtLevel(-1) {
		return nil
	}
	ev.enumerate(0)
	return ev.sortProject(t)
}

func (ev *refEvaluator) paramVal(i int) store.Value { return ev.params[ev.q.Params[i]] }

func (ev *refEvaluator) termValue(tm Term) int64 {
	switch tm.Kind {
	case TermVar:
		return ev.assign[tm.Var]
	case TermParam:
		return ev.paramVal(tm.Param).Int()
	default:
		return tm.Int
	}
}

// maxVar returns the highest variable index a term/atom/filter references,
// or -1 for constant-only constraints.
func termMaxVar(tm Term) int {
	if tm.Kind == TermVar {
		return tm.Var
	}
	return -1
}

func atomMaxVar(a *Atom) int {
	if a.Kind == AtomKindConstraint {
		return a.Var
	}
	m := termMaxVar(a.Src)
	if v := termMaxVar(a.Dst); v > m {
		m = v
	}
	if a.Stamp > m {
		m = a.Stamp
	}
	return m
}

func exprMaxVar(e Expr) int {
	if e.Kind == ExprVar || e.Kind == ExprProp {
		return e.Var
	}
	return -1
}

func filterMaxVar(f *Filter) int {
	m := exprMaxVar(f.Lhs)
	if v := exprMaxVar(f.Rhs); v > m {
		m = v
	}
	return m
}

// enumerate assigns variable v and recurses; a full assignment that passed
// every incremental check is materialized as a projected row.
func (ev *refEvaluator) enumerate(v int) {
	if v == len(ev.q.Vars) {
		ev.rows = append(ev.rows, ev.project())
		return
	}
	if ev.q.Vars[v].Kind == VarScalar {
		for _, val := range ev.scalarCandidates(v) {
			ev.assign[v] = val
			if ev.checkAtLevel(v) {
				ev.enumerate(v + 1)
			}
		}
		return
	}
	for _, id := range ev.nodeCandidates(v) {
		ev.assign[v] = int64(uint64(id))
		if ev.checkAtLevel(v) {
			ev.enumerate(v + 1)
		}
	}
}

// nodeCandidates enumerates the values worth trying for node variable v:
// the nodes an Out row of an already-assigned endpoint lists, via the first
// pattern that has v at its arrow's head, or every node when no such
// pattern exists. Against the arrow it does not prune: an edge is an Out
// entry of its tail, and the In rows list only the directed ones (a knows
// edge is an Out entry at both ends), so every node is tried there. This
// is a pruning of the all-nodes loop, not a join order: every atom is
// still checked at its own level.
func (ev *refEvaluator) nodeCandidates(v int) []ids.ID {
	for i := range ev.q.Atoms {
		a := &ev.q.Atoms[i]
		if a.Kind != AtomEdge || a.Dst.Kind != TermVar || a.Dst.Var != v || !termAssigned(a.Src, v) {
			continue
		}
		from := ids.ID(uint64(ev.termValue(a.Src)))
		if !a.VarLen() {
			return distinctPeers(ev.r.Out(from, a.Edge))
		}
		// Variable-length: every node whose minimal distance is in range.
		dist := ev.minDistMap(from, a.Edge, a.MaxHops)
		var cand []ids.ID
		for id, d := range dist {
			if d >= a.MinHops && d <= a.MaxHops {
				cand = append(cand, id)
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		return cand
	}
	return ev.all
}

// scalarCandidates enumerates the stamps (plain atom) or the minimal
// distance (variable-length atom) of the scalar variable's pattern; the
// parser guarantees both endpoints precede the scalar in declaration order.
func (ev *refEvaluator) scalarCandidates(v int) []int64 {
	for i := range ev.q.Atoms {
		a := &ev.q.Atoms[i]
		if a.Kind != AtomEdge || a.Stamp != v {
			continue
		}
		src := ids.ID(uint64(ev.termValue(a.Src)))
		dst := ev.termValue(a.Dst)
		if !a.VarLen() {
			var stamps []int64
			for _, e := range ev.r.Out(src, a.Edge) {
				if int64(uint64(e.To)) != dst {
					continue
				}
				dup := false
				for _, s := range stamps {
					if s == e.Stamp {
						dup = true
						break
					}
				}
				if !dup {
					stamps = append(stamps, e.Stamp)
				}
			}
			return stamps
		}
		d := ev.minDist(src, ids.ID(uint64(dst)), a.Edge, a.MaxHops)
		if d >= a.MinHops && d <= a.MaxHops {
			return []int64{int64(d)}
		}
		return nil
	}
	return nil
}

func termAssigned(tm Term, level int) bool {
	return tm.Kind != TermVar || tm.Var < level
}

func distinctPeers(es []store.Edge) []ids.ID {
	var peers []ids.ID
	seen := map[ids.ID]bool{}
	for _, e := range es {
		if !seen[e.To] {
			seen[e.To] = true
			peers = append(peers, e.To)
		}
	}
	return peers
}

// minDistMap is a plain map-based BFS over Out rows: minimal hop distance
// to every node reachable within maxHops.
func (ev *refEvaluator) minDistMap(from ids.ID, et store.EdgeType, maxHops int) map[ids.ID]int {
	dist := map[ids.ID]int{from: 0}
	frontier := []ids.ID{from}
	for d := 1; d <= maxHops && len(frontier) > 0; d++ {
		var next []ids.ID
		for _, n := range frontier {
			for _, e := range ev.r.Out(n, et) {
				if _, ok := dist[e.To]; !ok {
					dist[e.To] = d
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return dist
}

func (ev *refEvaluator) minDist(src, dst ids.ID, et store.EdgeType, maxHops int) int {
	if d, ok := ev.minDistMap(src, et, maxHops)[dst]; ok {
		return d
	}
	return -1
}

// checkAtLevel verifies every atom and filter that becomes fully assigned
// exactly at level v (-1 = constant-only constraints).
func (ev *refEvaluator) checkAtLevel(v int) bool {
	for i := range ev.q.Atoms {
		a := &ev.q.Atoms[i]
		if atomMaxVar(a) != v {
			continue
		}
		if !ev.checkAtom(a) {
			return false
		}
	}
	for i := range ev.q.Filters {
		f := &ev.q.Filters[i]
		if filterMaxVar(f) != v {
			continue
		}
		if !refCmp(f.Op, ev.evalExpr(f.Lhs), ev.evalExpr(f.Rhs)) {
			return false
		}
	}
	return true
}

func (ev *refEvaluator) checkAtom(a *Atom) bool {
	if a.Kind == AtomKindConstraint {
		return ids.ID(uint64(ev.assign[a.Var])).Kind() == a.NodeKind
	}
	src := ids.ID(uint64(ev.termValue(a.Src)))
	dst := ev.termValue(a.Dst)
	if !a.VarLen() {
		for _, e := range ev.r.Out(src, a.Edge) {
			if int64(uint64(e.To)) != dst {
				continue
			}
			if a.Stamp < 0 || e.Stamp == ev.assign[a.Stamp] {
				return true
			}
		}
		return false
	}
	d := ev.minDist(src, ids.ID(uint64(dst)), a.Edge, a.MaxHops)
	if d < a.MinHops || d > a.MaxHops {
		return false
	}
	return a.Stamp < 0 || int64(d) == ev.assign[a.Stamp]
}

func (ev *refEvaluator) evalExpr(e Expr) store.Value {
	switch e.Kind {
	case ExprVar:
		return store.Int64(ev.assign[e.Var])
	case ExprProp:
		return ev.r.PropOf(store.ByID(ids.ID(uint64(ev.assign[e.Var]))), e.Prop)
	case ExprParam:
		return ev.paramVal(e.Param)
	case ExprInt:
		return store.Int64(e.Int)
	default:
		return store.String(e.Str)
	}
}

// refCmp mirrors the documented filter semantics with its own code.
func refCmp(op CmpOp, a, b store.Value) bool {
	if op == CmpEq {
		return a == b
	}
	if op == CmpNe {
		return a != b
	}
	// Ordering: both present, same kind.
	if a.IsInt() && b.IsInt() {
		return intCmpHolds(op, a.Int(), b.Int())
	}
	if a.IsStr() && b.IsStr() {
		c := strings.Compare(a.Str(), b.Str())
		return intCmpHolds(op, int64(c), 0)
	}
	return false
}

func intCmpHolds(op CmpOp, a, b int64) bool {
	switch op {
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	default:
		return a >= b
	}
}

func (ev *refEvaluator) project() []store.Value {
	out := make([]store.Value, len(ev.q.Returns))
	for i := range ev.q.Returns {
		it := &ev.q.Returns[i]
		if it.Agg != AggNone && it.Star {
			continue // zero Value marks count(*)
		}
		out[i] = ev.evalExpr(it.Expr)
	}
	return out
}

// sortProject aggregates (if needed), sorts canonically and truncates —
// all with reference-side code.
func (ev *refEvaluator) sortProject(t *testing.T) [][]store.Value {
	q := ev.q
	rows := ev.rows
	if q.HasAggregates() {
		type group struct {
			keys []store.Value
			accs []int64
		}
		groups := map[string]*group{}
		var order []string
		for _, r := range rows {
			key := ""
			for i := range q.Returns {
				if q.Returns[i].Agg == AggNone {
					key += fmt.Sprintf("|%#v", r[i])
				}
			}
			g, ok := groups[key]
			if !ok {
				g = &group{keys: r, accs: make([]int64, len(q.Returns))}
				groups[key] = g
				order = append(order, key)
			}
			for i := range q.Returns {
				switch q.Returns[i].Agg {
				case AggCount:
					if q.Returns[i].Star || !r[i].IsZero() {
						g.accs[i]++
					}
				case AggSum:
					g.accs[i] += r[i].Int()
				}
			}
		}
		rows = nil
		for _, key := range order {
			g := groups[key]
			r := make([]store.Value, len(q.Returns))
			for i := range q.Returns {
				if q.Returns[i].Agg == AggNone {
					r[i] = g.keys[i]
				} else {
					r[i] = store.Int64(g.accs[i])
				}
			}
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return refRowLess(q, rows[i], rows[j]) })
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

func refRowLess(q *Query, a, b []store.Value) bool {
	for _, k := range q.Orders {
		if c := refValCmp(a[k.Col], b[k.Col]); c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	for i := range a {
		if c := refValCmp(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

func refValCmp(a, b store.Value) int {
	rank := func(v store.Value) int {
		switch {
		case v.IsInt():
			return 1
		case v.IsStr():
			return 2
		}
		return 0
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch {
	case a.IsInt():
		switch {
		case a.Int() < b.Int():
			return -1
		case a.Int() > b.Int():
			return 1
		}
		return 0
	case a.IsStr():
		return strings.Compare(a.Str(), b.Str())
	}
	return 0
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

// diffCorpus is the ad-hoc pattern corpus the differential suites run on
// both the SNB dataset and the randomized graphs. Parameters are limited to
// the $person/$name/$maxDate namespace so one binding serves every query.
var diffCorpus = []string{
	// Neighbourhood expansions.
	`match $person -knows-> ?f return ?f`,
	`match $person -knows-> ?f @ ?d return ?f, ?d order by ?d desc, ?f asc limit 5`,
	`match $person -knows-> ?f, ?f -knows-> ?g where ?g != $person return ?g, ?f`,
	`match $person -knows*1..2-> ?f @ ?dist return ?f, ?dist`,
	`match $person -knows*2..3-> ?f return ?f`,
	`match ?f -knows-> $person return ?f`,
	`match ?f -knows-> $person @ ?d, ?g -knows-> ?f where ?g != $person return ?g, ?f, ?d`,
	// A BFS whose last layer may come from the candidates of its filter.
	`match $person -knows*1..1-> ?f where ?f.firstName = $name return ?f`,
	`match $person -knows*2..3-> ?f @ ?dist where ?f.firstName = $name return ?f, ?dist`,
	`match $person -knows*3..3-> ?f where $name = ?f.firstName return ?f, ?f.lastName`,
	`match $person -knows*1..3-> ?f @ ?dist where ?f.firstName = "Ada" return ?f, ?dist`,
	// Message streams.
	`match ?m -hasCreator-> $person @ ?d where ?d <= $maxDate return ?m, ?d order by ?d desc, ?m asc limit 10`,
	`match ?m -hasCreator-> $person return count(*)`,
	`match ?m -hasCreator-> $person return sum(?m.length)`,
	`match $person -knows-> ?f, ?m -hasCreator-> ?f return ?f, count(?m) order by count(?m) desc, ?f asc limit 10`,
	`match ?c -replyOf-> ?m, ?m -hasCreator-> $person, ?c -hasCreator-> ?r return ?r, count(*) order by count(*) desc, ?r asc limit 10`,
	`match ?c -replyOf*1..4-> ?m, ?m -hasCreator-> $person return ?c, ?m limit 100`,
	`match ?p -likes-> ?m @ ?d, ?m -hasCreator-> $person return ?p, ?m, ?d order by ?d desc, ?p asc limit 10`,
	// Forums and membership.
	`match ?f : Forum, ?f -hasMember-> $person @ ?j return ?f, ?j`,
	`match ?f -containerOf-> ?m, ?f -hasModerator-> ?p, ?m -hasCreator-> ?p return ?f, ?m, ?p limit 50`,
	`match ?f : Forum, ?f -hasMember-> ?p @ ?j, ?p -isLocatedIn-> ?place return ?f, ?p, ?place, ?j limit 40`,
	// Kind scans, filters, dimensions.
	`match ?p : Person where ?p.firstName = $name return count(*)`,
	`match ?p : Person return count(*)`,
	`match ?p : Person where ?p.lastName > "L" return ?p, ?p.lastName order by ?p.lastName asc, ?p asc limit 15`,
	`match $person -knows-> ?f where ?f.birthday >= 0 return ?f`,
	`match $person -studyAt-> ?u @ ?year, ?u -isLocatedIn-> ?city return ?u, ?city, ?year`,
	`match ?k : TagClass, ?k -isSubclassOf-> ?root return ?k, ?root`,
	`match ?t : Tag, ?m -hasTag-> ?t return ?t, count(?m) order by count(?m) desc, ?t asc limit 5`,
	`match ?a -knows-> ?b @ ?d where ?d >= 0, ?a != ?b return count(*)`,
	`match ?t -hasType-> ?k, ?m -hasTag-> ?t, ?m -hasCreator-> ?p return ?p, count(?m), count(*) order by count(*) desc, ?p asc limit 10`,
	// Group keys and dedup: a two-column key (a string property and a node
	// ID) under count and sum, and (node, stamp) pairs, which the random
	// graphs' parallel knows edges repeat per node with different stamps.
	`match ?m -hasCreator-> ?p, ?p -isLocatedIn-> ?place return ?p.lastName, ?place, count(?m), sum(?m.length)`,
	`match ?a : Person, ?a -knows-> ?b @ ?d return ?a, ?b, ?d`,
}

// checkAgainstRef compiles text (with and without cardinality hints — both
// plans must produce identical results), runs it on the MVCC and view paths,
// and on the view once more with every BFS's last layer read from the
// candidates where the plan allows it, and compares each against the
// reference evaluator.
func checkAgainstRef(t *testing.T, st *store.Store, scT, scV *Scratch, text string, params Params) {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	plain, err := Compile(q)
	if err != nil {
		t.Fatalf("Compile(%q): %v", text, err)
	}
	v := st.CurrentView()
	hinted, err := CompileOpts(q, Opts{Card: func(k ids.Kind) int { return v.NumOfKind(k) }})
	if err != nil {
		t.Fatalf("CompileOpts(%q): %v", text, err)
	}

	var want [][]store.Value
	var txnRows, txnHinted [][]store.Value
	st.View(func(tx *store.Txn) {
		want = refEval(t, tx, q, params)
		res, err := runTxn(tx, scT, plain, params)
		if err != nil {
			t.Fatalf("txn run of %q: %v", text, err)
		}
		txnRows = res.Rows
		res, err = runTxn(tx, scT, hinted, params)
		if err != nil {
			t.Fatalf("txn hinted run of %q: %v", text, err)
		}
		txnHinted = res.Rows
	})
	if !rowsEqual(want, txnRows) {
		t.Fatalf("txn path disagrees with reference on %q:\n ref %s\n got %s", text, fmtRows(want), fmtRows(txnRows))
	}
	if !rowsEqual(want, txnHinted) {
		t.Fatalf("txn hinted plan disagrees with reference on %q:\n ref %s\n got %s", text, fmtRows(want), fmtRows(txnHinted))
	}
	res, err := runView(v, scV, plain, params)
	if err != nil {
		t.Fatalf("view run of %q: %v", text, err)
	}
	if !rowsEqual(want, res.Rows) {
		t.Fatalf("view path disagrees with reference on %q:\n ref %s\n got %s", text, fmtRows(want), fmtRows(res.Rows))
	}
	res, err = runView(v, scV, hinted, params)
	if err != nil {
		t.Fatalf("view hinted run of %q: %v", text, err)
	}
	if !rowsEqual(want, res.Rows) {
		t.Fatalf("view hinted plan disagrees with reference on %q:\n ref %s\n got %s", text, fmtRows(want), fmtRows(res.Rows))
	}
	// A BFS's last layer from the candidates, wherever a plan allows it.
	scV.lastHop = hopCandidates
	res, err = runView(v, scV, plain, params)
	scV.lastHop = hopChoose
	if err != nil {
		t.Fatalf("view run from the candidates of %q: %v", text, err)
	}
	if !rowsEqual(want, res.Rows) {
		t.Fatalf("view path from the candidates disagrees with reference on %q:\n ref %s\n got %s", text, fmtRows(want), fmtRows(res.Rows))
	}
}

func rowsEqual(a, b [][]store.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func fmtRows(rows [][]store.Value) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%d rows)", len(rows))
	for i, r := range rows {
		if i == 8 {
			sb.WriteString(" ...")
			break
		}
		fmt.Fprintf(&sb, " %#v", r)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// SNB dataset suite
// ---------------------------------------------------------------------------

var snbOnce sync.Once
var snbStore *store.Store
var snbData *schema.Dataset

// snbEnv loads one small SNB dataset into a store, shared by the
// differential and handwritten-comparison suites (read-only from here on).
func snbEnv(t *testing.T) (*store.Store, *schema.Dataset) {
	t.Helper()
	snbOnce.Do(func() {
		out := datagen.Generate(datagen.Config{Seed: 7, Persons: 100, Workers: 2})
		st := store.New()
		if err := schema.LoadDimensions(st); err != nil {
			return
		}
		if err := schema.Load(st, out.Data); err != nil {
			return
		}
		snbStore, snbData = st, out.Data
	})
	if snbStore == nil {
		t.Fatal("SNB environment failed to load")
	}
	return snbStore, snbData
}

// snbParams builds one $person/$name/$maxDate binding for a sample person.
func snbParams(ds *schema.Dataset, person ids.ID) Params {
	name := ds.Persons[0].FirstName
	return Params{
		"person":  store.Int64(int64(uint64(person))),
		"name":    store.String(name),
		"maxDate": store.Int64(1 << 60),
	}
}

func samplePersons(ds *schema.Dataset, n int) []schema.Person {
	if n > len(ds.Persons) {
		n = len(ds.Persons)
	}
	step := len(ds.Persons) / n
	if step == 0 {
		step = 1
	}
	var out []schema.Person
	for i := 0; i < len(ds.Persons) && len(out) < n; i += step {
		out = append(out, ds.Persons[i])
	}
	return out
}

// TestDifferentialSNB runs the whole corpus against the reference evaluator
// on the SNB dataset, on both read paths, with shared scratches.
func TestDifferentialSNB(t *testing.T) {
	if testing.Short() {
		t.Skip("differential SNB suite is not short")
	}
	st, ds := snbEnv(t)
	scT, scV := NewScratch(), NewScratch()
	persons := samplePersons(ds, 3)
	for _, text := range diffCorpus {
		rooted := strings.Contains(text, "$person")
		if rooted {
			for _, p := range persons {
				checkAgainstRef(t, st, scT, scV, text, snbParams(ds, p.ID))
			}
		} else {
			checkAgainstRef(t, st, scT, scV, text, snbParams(ds, persons[0].ID))
		}
	}
}

// TestDeclarativeMatchesHandwritten pins the ISSUE-10 equivalence: the
// declarative Q1/Q2/Q8 return exactly the hand-written implementations'
// rows (projected onto the declarative columns), on both read paths, for a
// spread of start persons.
func TestDeclarativeMatchesHandwritten(t *testing.T) {
	st, ds := snbEnv(t)
	v := st.CurrentView()
	wsc := workload.NewScratch()
	qsc := NewScratch()
	name := ds.Persons[0].FirstName

	check := func(t *testing.T, specName string, params Params, want [][]store.Value) {
		t.Helper()
		spec := Lookup(specName)
		res, err := spec.RunView(v, qsc, params)
		if err != nil {
			t.Fatalf("%s view: %v", specName, err)
		}
		if !rowsEqual(want, res.Rows) {
			t.Fatalf("%s view != handwritten:\n hand %s\n decl %s", specName, fmtRows(want), fmtRows(res.Rows))
		}
		st.View(func(tx *store.Txn) {
			res, err = spec.RunTxn(tx, qsc, params)
		})
		if err != nil {
			t.Fatalf("%s txn: %v", specName, err)
		}
		if !rowsEqual(want, res.Rows) {
			t.Fatalf("%s txn != handwritten:\n hand %s\n decl %s", specName, fmtRows(want), fmtRows(res.Rows))
		}
	}

	total := 0
	for _, p := range samplePersons(ds, 12) {
		person := store.Int64(int64(uint64(p.ID)))

		// Q1: return ?f, ?dist, ?f.lastName.
		hand1 := workload.Q1(v, wsc, p.ID, name)
		total += len(hand1)
		want := make([][]store.Value, len(hand1))
		for i, r := range hand1 {
			want[i] = []store.Value{
				store.Int64(int64(uint64(r.Person))),
				store.Int64(int64(r.Distance)),
				store.String(r.LastName),
			}
		}
		check(t, "Q1", Params{"person": person, "name": store.String(name)}, want)

		// Q2: return ?m, ?f, ?d.
		maxDate := int64(1 << 60)
		hand2 := workload.Q2(v, wsc, p.ID, maxDate)
		total += len(hand2)
		want = make([][]store.Value, len(hand2))
		for i, r := range hand2 {
			want[i] = []store.Value{
				store.Int64(int64(uint64(r.Message))),
				store.Int64(int64(uint64(r.Creator))),
				store.Int64(r.CreationDate),
			}
		}
		check(t, "Q2", Params{"person": person, "maxDate": store.Int64(maxDate)}, want)

		// Q8: return ?c, ?r, ?d.
		hand8 := workload.Q8(v, wsc, p.ID)
		total += len(hand8)
		want = make([][]store.Value, len(hand8))
		for i, r := range hand8 {
			want[i] = []store.Value{
				store.Int64(int64(uint64(r.Comment))),
				store.Int64(int64(uint64(r.Replier))),
				store.Int64(r.CreationDate),
			}
		}
		check(t, "Q8", Params{"person": person}, want)
	}
	if total == 0 {
		t.Fatal("handwritten queries returned no rows for any sample person — the comparison is vacuous")
	}
}

// ---------------------------------------------------------------------------
// Randomized schema-shaped graphs under an interleaved update stream
// ---------------------------------------------------------------------------

type randGraph struct {
	persons, messages, forums []ids.ID
	tags, places              []ids.ID
	tagClasses                []ids.ID
}

var randNames = []string{"Ada", "Bob", "Eve"}

// seedRandDims creates the dimension layer: places, a tag-class tree and
// tags, mirroring the shape schema.LoadDimensions produces.
func seedRandDims(t *testing.T, st *store.Store, g *randGraph) {
	t.Helper()
	tx := st.Begin()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		id := ids.DimensionID(ids.KindPlace, uint32(i+1))
		must(tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String(fmt.Sprintf("place%d", i)))}))
		g.places = append(g.places, id)
	}
	root := ids.DimensionID(ids.KindTagClass, 1)
	must(tx.CreateNode(root, store.Props{store.NewProp(store.PropName, store.String("Thing"))}))
	g.tagClasses = append(g.tagClasses, root)
	for i := 0; i < 3; i++ {
		id := ids.DimensionID(ids.KindTagClass, uint32(i+2))
		must(tx.CreateNode(id, nil))
		must(tx.AddEdge(id, store.EdgeIsSubclassOf, root, 0))
		g.tagClasses = append(g.tagClasses, id)
	}
	for i := 0; i < 6; i++ {
		id := ids.DimensionID(ids.KindTag, uint32(i+1))
		must(tx.CreateNode(id, nil))
		must(tx.AddEdge(id, store.EdgeHasType, g.tagClasses[1+i%3], 0))
		g.tags = append(g.tags, id)
	}
	must(tx.Commit())
}

// randStep applies one schema-shaped update transaction: new persons with
// properties and relationships, a forum every other step, posts, comments,
// likes.
func randStep(t *testing.T, st *store.Store, rnd *xrand.Rand, g *randGraph, step int) {
	t.Helper()
	tx := st.Begin()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	now := int64(step * 1000)
	for i := 0; i < 1+rnd.Intn(2); i++ {
		id := ids.Compose(ids.KindPerson, int64(step), uint32(i))
		must(tx.CreateNode(id, store.Props{
			store.NewProp(store.PropFirstName, store.String(randNames[rnd.Intn(len(randNames))])),
			store.NewProp(store.PropLastName, store.String(fmt.Sprintf("L%d", rnd.Intn(4)))),
			store.NewProp(store.PropBirthday, store.Int64(int64(rnd.Intn(1000)))),
			store.NewProp(store.PropCreationDate, store.Int64(now+int64(i))),
		}))
		must(tx.AddEdge(id, store.EdgeIsLocatedIn, g.places[rnd.Intn(len(g.places))], 0))
		must(tx.AddEdge(id, store.EdgeStudyAt, g.places[rnd.Intn(len(g.places))], int64(2000+rnd.Intn(10))))
		g.persons = append(g.persons, id)
	}
	for i := 0; i < 3; i++ {
		a := g.persons[rnd.Intn(len(g.persons))]
		b := g.persons[rnd.Intn(len(g.persons))]
		if a != b {
			must(tx.AddKnows(a, b, now+int64(i)))
		}
	}
	if step%2 == 1 {
		f := ids.Compose(ids.KindForum, int64(step), 0)
		must(tx.CreateNode(f, store.Props{store.NewProp(store.PropTitle, store.String(fmt.Sprintf("forum%d", step)))}))
		must(tx.AddEdge(f, store.EdgeHasModerator, g.persons[rnd.Intn(len(g.persons))], now))
		for i := 0; i < 2; i++ {
			must(tx.AddEdge(f, store.EdgeHasMember, g.persons[rnd.Intn(len(g.persons))], now+int64(i)))
		}
		g.forums = append(g.forums, f)
	}
	for i := 0; i < 2; i++ {
		m := ids.Compose(ids.KindPost, int64(step), uint32(i))
		must(tx.CreateNode(m, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(now+int64(10+i))),
			store.NewProp(store.PropLength, store.Int64(int64(rnd.Intn(100)))),
		}))
		must(tx.AddEdge(m, store.EdgeHasCreator, g.persons[rnd.Intn(len(g.persons))], now+int64(10+i)))
		must(tx.AddEdge(m, store.EdgeHasTag, g.tags[rnd.Intn(len(g.tags))], 0))
		if len(g.forums) > 0 {
			must(tx.AddEdge(g.forums[rnd.Intn(len(g.forums))], store.EdgeContainerOf, m, now))
		}
		g.messages = append(g.messages, m)
	}
	for i := 0; i < 1+rnd.Intn(2); i++ {
		c := ids.Compose(ids.KindComment, int64(step), uint32(i))
		must(tx.CreateNode(c, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(now+int64(20+i))),
			store.NewProp(store.PropLength, store.Int64(int64(rnd.Intn(50)))),
		}))
		must(tx.AddEdge(c, store.EdgeReplyOf, g.messages[rnd.Intn(len(g.messages))], now+int64(20+i)))
		must(tx.AddEdge(c, store.EdgeHasCreator, g.persons[rnd.Intn(len(g.persons))], now+int64(20+i)))
		g.messages = append(g.messages, c)
	}
	for i := 0; i < 2; i++ {
		must(tx.AddEdge(g.persons[rnd.Intn(len(g.persons))], store.EdgeLikes,
			g.messages[rnd.Intn(len(g.messages))], now+int64(30+i)))
	}
	must(tx.Commit())
}

// TestDifferentialRandomGraphs evolves small schema-shaped graphs through
// interleaved inserts, forcing full view recompactions (era bumps)
// mid-run, and checks the whole corpus against the reference evaluator
// after every step — with scratches reused across all of it.
func TestDifferentialRandomGraphs(t *testing.T) {
	const steps = 8
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := store.New()
			rnd := xrand.New(seed)
			g := &randGraph{}
			seedRandDims(t, st, g)
			scT, scV := NewScratch(), NewScratch()
			era0 := st.CurrentView().Era()
			bumped := false
			for step := 0; step < steps; step++ {
				// Every third step forces a full recompaction so the suite
				// crosses era bumps; otherwise leave incremental refresh on.
				if step%3 == 2 {
					st.SetViewCompactThreshold(0)
				} else {
					st.SetViewCompactThreshold(1 << 30)
				}
				randStep(t, st, rnd, g, step)
				if st.CurrentView().Era() != era0 {
					bumped = true
				}
				params := Params{
					"person":  store.Int64(int64(uint64(g.persons[rnd.Intn(len(g.persons))]))),
					"name":    store.String(randNames[rnd.Intn(len(randNames))]),
					"maxDate": store.Int64(1 << 60),
				}
				for _, text := range diffCorpus {
					checkAgainstRef(t, st, scT, scV, text, params)
				}
				// The registry queries ride the same differential harness.
				for i := range Registry {
					checkAgainstRef(t, st, scT, scV, Registry[i].Text, params)
				}
			}
			if !bumped {
				t.Fatal("suite never crossed an era bump")
			}
		})
	}
}
