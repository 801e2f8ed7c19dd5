package store

import (
	"reflect"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// viewEdgeTypes are the edge types the randomised tests exercise.
var viewEdgeTypes = []EdgeType{EdgeKnows, EdgeLikes, EdgeHasCreator}

// randomGraphStep applies one random committed transaction: a few node
// creations and edge insertions over the accumulated ID population. Returns the updated population.
func randomGraphStep(t *testing.T, s *Store, r *xrand.Rand, pop []ids.ID, step int) []ids.ID {
	t.Helper()
	tx := s.Begin()
	for i := 0; i < 1+r.Intn(3); i++ {
		id := ids.Compose(ids.KindPerson, int64(step), uint32(i))
		props := Props{
			NewProp(PropFirstName, String([]string{"ada", "bob", "eve"}[r.Intn(3)])),
			NewProp(PropCreationDate, Int64(int64(step*100+i))),
		}
		if err := tx.CreateNode(id, props); err != nil {
			t.Fatal(err)
		}
		pop = append(pop, id)
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		et := viewEdgeTypes[r.Intn(len(viewEdgeTypes))]
		if et == EdgeKnows {
			_ = tx.AddKnows(a, b, int64(step))
		} else {
			_ = tx.AddEdge(a, et, b, int64(step))
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return pop
}

// assertViewMatchesTxn compares every read primitive of a view against an
// MVCC transaction frozen at the same timestamp.
func assertViewMatchesTxn(t *testing.T, s *Store, v *SnapshotView, tx *Txn, pop []ids.ID) {
	t.Helper()
	if v.Timestamp() != tx.Snapshot() {
		t.Fatalf("timestamps diverge: view %d txn %d", v.Timestamp(), tx.Snapshot())
	}
	probe := append(append([]ids.ID(nil), pop...),
		ids.Compose(ids.KindPerson, 1<<30, 0)) // a never-created ID
	for _, id := range probe {
		if got, want := v.Exists(id), tx.Exists(id); got != want {
			t.Fatalf("Exists(%v): view %v txn %v", id, got, want)
		}
		for _, et := range viewEdgeTypes {
			if got, want := v.Out(id, et), tx.Out(id, et); !edgesEqual(got, want) {
				t.Fatalf("Out(%v, %v): view %v txn %v", id, et, got, want)
			}
			if got, want := v.InOf(ByID(id), et), tx.InOf(ByID(id), et); !edgesEqual(got, want) {
				t.Fatalf("In(%v, %v): view %v txn %v", id, et, got, want)
			}
			if got, want := v.OutDegreeOf(ByID(id), et), tx.OutDegreeOf(ByID(id), et); got != want {
				t.Fatalf("OutDegree(%v, %v): view %d txn %d", id, et, got, want)
			}
		}
		for _, key := range []PropKey{PropFirstName, PropLastName, PropCreationDate} {
			if got, want := v.PropOf(ByID(id), key), tx.PropOf(ByID(id), key); got != want {
				t.Fatalf("Prop(%v, %v): view %#v txn %#v", id, key, got, want)
			}
		}
		gotPs, gotOK := v.PropsOf(ByID(id))
		wantPs, wantOK := tx.PropsOf(ByID(id))
		if gotOK != wantOK || !propsEqual(gotPs, wantPs) {
			t.Fatalf("Props(%v): view %v/%v txn %v/%v", id, gotPs, gotOK, wantPs, wantOK)
		}
	}
	if got, want := v.ScanKind(ids.KindPerson).IDs(), tx.ScanKind(ids.KindPerson).IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NodesOfKind: view %d txn %d nodes", len(got), len(want))
	}
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func propsEqual(a, b Props) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewEquivalenceRandomised is the equivalence property test: for a
// randomly grown graph with interleaved updates, the frozen view and the
// MVCC transaction paths must agree on every read primitive at every
// intermediate snapshot.
func TestViewEquivalenceRandomised(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := xrand.New(seed)
		s := New()
		var pop []ids.ID
		for step := 1; step <= 25; step++ {
			pop = randomGraphStep(t, s, r, pop, step)
			v := s.CurrentView()
			tx := s.Begin()
			tx.readonly = true
			assertViewMatchesTxn(t, s, v, tx, pop)
		}
	}
}

// TestViewFrozenUnderLaterCommits pins immutability: a view captured at one
// epoch must keep returning the old state after later commits, while
// CurrentView serves the new epoch.
func TestViewFrozenUnderLaterCommits(t *testing.T) {
	s := New()
	a := ids.Compose(ids.KindPerson, 1, 0)
	b := ids.Compose(ids.KindPerson, 1, 1)
	tx := s.Begin()
	_ = tx.CreateNode(a, Props{NewProp(PropFirstName, String("ada"))})
	_ = tx.CreateNode(b, Props{NewProp(PropFirstName, String("bob"))})
	_ = tx.AddKnows(a, b, 10)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	old := s.CurrentView()
	if got := len(old.Out(a, EdgeKnows)); got != 1 {
		t.Fatalf("old view degree = %d", got)
	}
	if s.CurrentView() != old {
		t.Fatal("CurrentView must cache between commits")
	}

	tx = s.Begin()
	c := ids.Compose(ids.KindPerson, 1, 2)
	_ = tx.CreateNode(c, Props{NewProp(PropFirstName, String("cy"))})
	_ = tx.AddKnows(a, c, 20)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The old view is frozen at its epoch.
	if got := len(old.Out(a, EdgeKnows)); got != 1 {
		t.Fatalf("old view mutated: degree = %d", got)
	}
	if got := old.PropOf(ByID(c), PropFirstName).Str(); got != "" {
		t.Fatalf("old view sees a later node's prop %q", got)
	}
	if old.Exists(c) {
		t.Fatal("old view sees later node")
	}

	// The new epoch's view sees the commit.
	cur := s.CurrentView()
	if cur == old {
		t.Fatal("commit must invalidate the cached view")
	}
	if got := len(cur.Out(a, EdgeKnows)); got != 2 {
		t.Fatalf("new view degree = %d", got)
	}
	if got := cur.PropOf(ByID(c), PropFirstName).Str(); got != "cy" {
		t.Fatalf("new view prop %q", got)
	}
	if got := cur.PropOf(ByID(a), PropFirstName).Str(); got != "ada" {
		t.Fatalf("new view prop of an older node %q", got)
	}
}

// TestViewAtHistorical pins time travel: ViewAt at an old timestamp
// reconstructs exactly the state a transaction saw then.
func TestViewAtHistorical(t *testing.T) {
	s := New()
	r := xrand.New(7)
	var pop []ids.ID
	var stamps []int64
	for step := 1; step <= 10; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		stamps = append(stamps, s.LastCommit())
	}
	for _, ts := range stamps {
		v := s.ViewAt(ts)
		tx := &Txn{s: s, snapshot: ts, readonly: true}
		assertViewMatchesTxn(t, s, v, tx, pop)
	}
}

// TestViewOrdinalsDense checks the ordinal contract: dense, sorted by ID,
// and consistent with ord/idAt round-trips.
func TestViewOrdinalsDense(t *testing.T) {
	s := New()
	r := xrand.New(9)
	var pop []ids.ID
	for step := 1; step <= 8; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
	}
	v := s.CurrentView()
	if v.NumNodes() == 0 {
		t.Fatal("empty view")
	}
	var prev ids.ID
	for o := int32(0); o < int32(v.NumNodes()); o++ {
		id := v.idAt(o)
		if o > 0 && id <= prev {
			t.Fatal("ordinals not in ascending ID order")
		}
		prev = id
		back, ok := v.ord(id)
		if !ok || back != o {
			t.Fatalf("ord(idAt(%d)) = %d, %v", o, back, ok)
		}
	}
}

// chainEndID returns an ID that no view holds whose home slot in tab — the
// overlay's table — is the first slot of tab's longest run of occupied
// slots: looking it up walks the whole run, comparing against every node on
// it, before the empty slot that ends the run says it is absent.
func chainEndID(t *testing.T, tab *ordTable) ids.ID {
	t.Helper()
	n := len(tab.slots)
	used := func(h int) bool { return tab.slots[h%n].Load() != 0 }
	start, longest := 0, 0
	for h := 0; h < n; h++ {
		if !used(h) || used(h+n-1) {
			continue // not the first slot of a run
		}
		l := 0
		for used(h + l) {
			l++
		}
		if l > longest {
			start, longest = h, l
		}
	}
	if longest == 0 {
		t.Fatalf("empty %d-slot table", n)
	}
	// Minute buckets from 2^30 on are never created by the tests.
	for m := int64(1 << 30); m < 1<<30+1<<22; m++ {
		if id := ids.Compose(ids.KindPerson, m, 0); tab.home(id) == start {
			return id
		}
	}
	t.Fatalf("no ID homes at slot %d", start)
	return 0
}

// assertOrdContract checks the ID -> ordinal contract on one view: every
// ordinal resolves back to itself, and IDs the view does not hold resolve to
// nothing. The probes cover both mechanisms. On the base's directory: each
// kind's min-1 and max+1, both neighbours of every base node (among them
// absent IDs inside an occupied bucket), the empty kind 0 and kind bytes
// past the directory, the empty Photo kind among them. On the overlay's
// table: an ID at the end of its longest probe run.
func assertOrdContract(t *testing.T, v *SnapshotView) {
	t.Helper()
	held := make(map[ids.ID]int32, v.NumNodes())
	for o := int32(0); o < int32(v.NumNodes()); o++ {
		held[v.idAt(o)] = o
		if back, ok := v.ord(v.idAt(o)); !ok || back != o {
			t.Fatalf("ord(idAt(%d)) = %d, %v", o, back, ok)
		}
	}
	d := &v.base.ord
	probes := []ids.ID{0, 5, ids.Compose(ids.KindPhoto, 1, 0), ids.ID(len(d.kinds)) << 56, ^ids.ID(0)}
	for _, k := range d.kinds {
		if k.min <= k.max {
			probes = append(probes, k.min-1, k.max+1)
		}
	}
	inBucket := 0
	for _, id := range v.base.nodes {
		k := &d.kinds[id>>56]
		for _, n := range []ids.ID{id - 1, id + 1} {
			probes = append(probes, n)
			if _, ok := held[n]; !ok && n >= k.min && n <= k.max && (n-k.min)>>k.shift == (id-k.min)>>k.shift {
				inBucket++
			}
		}
	}
	if len(v.base.nodes) > 0 && inBucket == 0 {
		t.Fatal("no absent ID inside an occupied bucket was probed")
	}
	if v.ordOver != nil {
		probes = append(probes, chainEndID(t, v.ordOver))
	}
	for _, id := range probes {
		want, ok := held[id]
		if o, got := v.ord(id); got != ok || o != want {
			t.Fatalf("ord(%v) = %d, %v; the view holds it: %v (ordinal %d)", id, o, got, ok, want)
		}
	}
}

// TestOrdDirSkewedSpan pins the directory on the span shape that crowds it:
// all but one person created in one minute, one far outlier. The outlier
// stretches the span until every other node shares one bucket, which the
// lookup must binary-search, not scan. Sequences step by two, so every
// neighbour of a member is absent.
func TestOrdDirSkewedSpan(t *testing.T) {
	s := New()
	tx := s.Begin()
	for i := uint32(0); i < 1000; i++ {
		if err := tx.CreateNode(ids.Compose(ids.KindPerson, 5, 2*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Minute buckets from 2^30 on are chainEndID's.
	for _, id := range []ids.ID{ids.Compose(ids.KindPerson, 1<<30-1, 0), ids.Compose(ids.KindComment, 7, 0)} {
		if err := tx.CreateNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v := s.CurrentView()
	k := v.base.ord.kinds[ids.KindPerson]
	if crowded := k.dir[1] - k.dir[0]; crowded != 1000 {
		t.Fatalf("first person bucket holds %d nodes, want the 1000 of the crowded minute", crowded)
	}
	assertOrdContract(t, v)
}

// TestOrdTableContract pins SnapshotView.ord over both its mechanisms, the
// base's directory and the overlay's position table, in every state a view
// reaches: a fresh base, a refreshed
// overlay (growing its table, and sharing it with a held view that must not
// see what is appended after it), and the base an inline rebuild folds the
// overlay into.
func TestOrdTableContract(t *testing.T) {
	r := xrand.New(13)
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	var pop []ids.ID
	step := 1
	for ; step <= 30; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
	}
	v, ev := s.AcquireView()
	if ev != ViewRebuilt || v.ordOver != nil {
		t.Fatalf("first view: %v, overlay table %v", ev, v.ordOver)
	}
	assertOrdContract(t, v)

	// Refreshes append ordinals; enough of them to regrow the overlay table.
	for ; step <= 60; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		if v, ev = s.AcquireView(); ev != ViewRefreshed {
			t.Fatalf("step %d: %v, want refresh", step, ev)
		}
		assertOrdContract(t, v)
	}
	if len(v.ordOver.slots) == 64 {
		t.Fatal("the overlay table never grew")
	}

	// A node appended after a held view lands in the table the held view
	// still reads, at a position beyond the held view's nodesOver.
	held := v
	late := ids.Compose(ids.KindPerson, int64(step), 0)
	tx := s.Begin()
	if err := tx.CreateNode(late, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	step++
	v, _ = s.AcquireView()
	if v.ordOver != held.ordOver {
		t.Fatal("the refresh regrew the table; the held view no longer shares it")
	}
	if o, ok := v.ord(late); !ok || int(o) != v.NumNodes()-1 {
		t.Fatalf("ord(late) = %d, %v on the refreshed view", o, ok)
	}
	if o, ok := held.ord(late); ok {
		t.Fatalf("held view resolves a node appended after it to ordinal %d", o)
	}
	assertOrdContract(t, held)
	assertOrdContract(t, v)

	// An inline rebuild folds the overlay into a new base: with the
	// threshold below the overlay, the next commit drops the view's cursor.
	s.SetViewCompactThreshold(1)
	pop = randomGraphStep(t, s, r, pop, step)
	c, ev := s.AcquireView()
	if ev != ViewRebuilt || c.Era() == v.Era() || c.ordOver != nil {
		t.Fatalf("after the rebuild: %v, era %d -> %d, overlay table %v", ev, v.Era(), c.Era(), c.ordOver)
	}
	assertOrdContract(t, c)
	for _, id := range append(pop, late) {
		if !c.Exists(id) {
			t.Fatalf("compacted view lost %v", id)
		}
	}
}
