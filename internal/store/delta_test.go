package store

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// Tests for incremental snapshot-view maintenance: the delta-refreshed
// CurrentView chain must be indistinguishable from full rebuilds at every
// epoch, ordinals must stay stable within an era, and the maintenance
// counters must prove which path ran.

// viewDiff compares a (possibly delta-refreshed) view against a from-scratch
// compaction at the same timestamp: same node set, consistent ordinal<->ID
// mapping, identical adjacency rows, props and kind lists. Ordinal values
// themselves may differ (refresh appends, a rebuild sorts), so the
// comparison is keyed by node ID. It returns the first difference, so that
// goroutines other than the test's own can report one.
func viewDiff(v, ref *SnapshotView) error {
	ts := v.Timestamp()
	if ts != ref.Timestamp() {
		return fmt.Errorf("timestamps diverge: %d vs %d", ts, ref.Timestamp())
	}
	if v.NumNodes() != ref.NumNodes() {
		return fmt.Errorf("ts %d: node counts diverge: %d vs %d", ts, v.NumNodes(), ref.NumNodes())
	}
	for o := int32(0); o < int32(ref.NumNodes()); o++ {
		id := ref.idAt(o)
		vo, ok := v.ord(id)
		if !ok {
			return fmt.Errorf("ts %d: node %v missing from refreshed view", ts, id)
		}
		if back := v.idAt(vo); back != id {
			return fmt.Errorf("ts %d: ordinal mapping broken: ord(%v)=%d but idAt(%d)=%v", ts, id, vo, vo, back)
		}
		for _, et := range viewEdgeTypes {
			if got, want := v.Out(id, et), ref.Out(id, et); !edgesEqual(got, want) {
				return fmt.Errorf("ts %d: Out(%v, %v): refreshed %v rebuild %v", ts, id, et, got, want)
			}
			if got, want := v.In(id, et), ref.In(id, et); !edgesEqual(got, want) {
				return fmt.Errorf("ts %d: In(%v, %v): refreshed %v rebuild %v", ts, id, et, got, want)
			}
			if got, want := v.InDegree(id, et), len(ref.In(id, et)); got != want {
				return fmt.Errorf("ts %d: InDegree(%v, %v): refreshed %d rebuild %d", ts, id, et, got, want)
			}
		}
		gotPs, _ := v.Props(id)
		wantPs, _ := ref.Props(id)
		if !propsEqual(gotPs, wantPs) {
			return fmt.Errorf("ts %d: Props(%v): refreshed %v rebuild %v", ts, id, gotPs, wantPs)
		}
	}
	for _, kind := range []ids.Kind{ids.KindPerson, ids.KindPost, ids.KindComment} {
		got, want := v.NodesOfKind(kind), ref.NodesOfKind(kind)
		if len(got) != len(want) {
			return fmt.Errorf("ts %d: NodesOfKind(%v): refreshed %d rebuild %d", ts, kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("ts %d: NodesOfKind(%v)[%d]: refreshed %v rebuild %v", ts, kind, i, got[i], want[i])
			}
		}
	}
	return nil
}

func assertViewMatchesRebuild(t *testing.T, v, ref *SnapshotView) {
	t.Helper()
	if err := viewDiff(v, ref); err != nil {
		t.Fatal(err)
	}
}

// refreshEquivalenceSweep grows a random graph one committed transaction at
// a time and, after every commit, checks the delta-refreshed CurrentView
// against both a full rebuild (ViewAt) and an MVCC transaction at the same
// snapshot. The store's maintenance knobs are set by the caller so the
// sweep can run refresh-heavy, era-bump-heavy, or overflow-heavy.
func refreshEquivalenceSweep(t *testing.T, seed uint64, steps int, tune func(*Store)) ViewStatsSnapshot {
	t.Helper()
	r := xrand.New(seed)
	s := New()
	if tune != nil {
		tune(s)
	}
	var pop []ids.ID
	for step := 1; step <= steps; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		v := s.CurrentView()
		assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
		tx := s.Begin()
		tx.readonly = true
		assertViewMatchesTxn(t, s, v, tx, pop)
	}
	return s.ViewStats()
}

// TestViewRefreshEquivalenceRandomised is the delta-vs-full equivalence
// property: under an interleaved update stream (creations, property
// updates, edge insertions), the refreshed view chain must
// be indistinguishable from from-scratch compactions and from the MVCC
// read path at every epoch.
func TestViewRefreshEquivalenceRandomised(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		st := refreshEquivalenceSweep(t, seed, 30, nil)
		if st.Refreshes == 0 {
			t.Fatalf("sweep never exercised the refresh path: %+v", st)
		}
		if st.EraBumps != 0 {
			t.Fatalf("sweep unexpectedly recompacted under the default threshold: %+v", st)
		}
	}
}

// TestViewRefreshEquivalenceAcrossEraBumps forces frequent recompactions
// (a tiny compaction threshold) so the sweep crosses era bumps: refresh
// chains and the inline rebuilds between them must all stay equivalent, and
// every era bump must be a reader's rebuild after a view-cursor drop.
func TestViewRefreshEquivalenceAcrossEraBumps(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		st := refreshEquivalenceSweep(t, seed, 30, func(s *Store) {
			s.SetViewCompactThreshold(20)
		})
		if st.EraBumps == 0 || st.EraBumps != st.Overflows || st.Rebuilds != 1+st.EraBumps {
			t.Fatalf("era bumps must all be inline rebuilds after a cursor drop: %+v", st)
		}
		if st.Refreshes == 0 {
			t.Fatalf("sweep never refreshed between bumps: %+v", st)
		}
	}
}

// TestViewLineageUnderReaders is the append-sharing property under the race
// detector: readers hold old views of a lineage and keep comparing them with
// from-scratch compactions at their own timestamps while later refreshes
// append into the rows, ordinal list and kind lists those views share, and
// while inline rebuilds (a small explicit threshold) start new eras. The
// newest view is checked against ViewAt and a Txn at every epoch as in the
// sweeps above.
func TestViewLineageUnderReaders(t *testing.T) {
	const steps, readers = 150, 3
	r := xrand.New(21)
	s := New()
	s.SetViewCompactThreshold(60)

	type held struct{ v, ref *SnapshotView }
	var (
		mu      sync.Mutex
		views   []held
		stop    atomic.Bool
		readErr atomic.Pointer[error]
		wg      sync.WaitGroup
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i; !stop.Load(); k += 7 {
				mu.Lock()
				var h held
				if len(views) > 0 {
					h = views[k%len(views)]
				}
				mu.Unlock()
				if h.v == nil {
					continue
				}
				if err := viewDiff(h.v, h.ref); err != nil {
					readErr.CompareAndSwap(nil, &err)
				}
			}
		}(i)
	}

	var pop []ids.ID
	var lastEra uint64
	for step := 1; step <= steps && readErr.Load() == nil; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		// A rebuild is due for the first view and after each cursor drop no
		// reader has followed yet.
		st := s.ViewStats()
		v, ev := s.AcquireView()
		if due := st.Overflows > st.Rebuilds-1; (ev == ViewRebuilt) != due {
			t.Fatalf("step %d: acquisition event %v, counters before it %+v", step, ev, st)
		}
		if v.Era() < lastEra || (ev == ViewRebuilt) != (v.Era() != lastEra) {
			t.Fatalf("step %d: %v moved the era from %d to %d", step, ev, lastEra, v.Era())
		}
		lastEra = v.Era()
		ref := s.ViewAt(v.Timestamp())
		assertViewMatchesRebuild(t, v, ref)
		tx := s.Begin()
		tx.readonly = true
		assertViewMatchesTxn(t, s, v, tx, pop)
		mu.Lock()
		views = append(views, held{v, ref})
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if err := readErr.Load(); err != nil {
		t.Fatalf("held view diverged from its epoch: %v", *err)
	}

	st := s.ViewStats()
	if st.EraBumps < 3 || st.EraBumps != st.Overflows || st.Rebuilds != 1+st.EraBumps || st.Refreshes == 0 {
		t.Fatalf("era bumps must be inline rebuilds after cursor drops, with refreshes between: %+v", st)
	}
	// Every held view, those of long-gone eras included, still reads its own
	// epoch now that all maintenance is over.
	for _, h := range views {
		assertViewMatchesRebuild(t, h.v, h.ref)
	}
}

// TestOverlayPastTriggerRebuildsInline pins the one compaction trigger: a
// view refreshes while the era's overlay plus the backlog of commits since
// the cached view stays within the threshold, the commit that takes the
// pair past it drops the view's cursor, and the next acquisition rebuilds
// inline — a new era equal to a from-scratch compaction — on the caller's
// goroutine, starting none.
func TestOverlayPastTriggerRebuildsInline(t *testing.T) {
	const threshold = 100 // a post creation costs one overlay entry
	s := New()
	s.SetViewCompactThreshold(threshold)
	commitPost(t, s, 0)
	v0 := s.CurrentView()
	n := 0
	acquire := func(want ViewEvent) *SnapshotView {
		t.Helper()
		v, ev := s.AcquireView()
		if ev != want {
			t.Fatalf("after %d commits: %v, want %v (%+v)", n, ev, want, s.ViewStats())
		}
		return v
	}
	// Half the threshold in the overlay, one refresh a commit; then the
	// other half as a backlog nobody reads: the pair is at the threshold,
	// not past it, so the next acquisition still refreshes.
	for n < threshold/2 {
		n++
		commitPost(t, s, n)
		acquire(ViewRefreshed)
	}
	for n < threshold {
		n++
		commitPost(t, s, n)
	}
	if st := s.ViewStats(); st.OverlayEntries != threshold/2 || st.Overflows != 0 || logLen(s) != threshold/2 {
		t.Fatalf("at the threshold: %+v, log keeps %d", st, logLen(s))
	}
	if v := acquire(ViewRefreshed); v.Era() != v0.Era() {
		t.Fatalf("the refresh at the threshold moved the era")
	}
	if st := s.ViewStats(); st.OverlayEntries != threshold {
		t.Fatalf("after the refresh: %+v", st)
	}

	// One more commit passes it.
	before := s.ViewStats()
	n++
	commitPost(t, s, n)
	if st := s.ViewStats(); st.Overflows != before.Overflows+1 || logLen(s) != 0 {
		t.Fatalf("the commit past the threshold kept the view's cursor: %+v, log keeps %d", st, logLen(s))
	}
	goroutines := runtime.NumGoroutine()
	v := acquire(ViewRebuilt)
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Fatalf("the rebuild left %d goroutines, %d before it", g, goroutines)
	}
	st := s.ViewStats()
	if st.EraBumps != before.EraBumps+1 || st.Rebuilds != before.Rebuilds+1 || st.OverlayEntries != 0 {
		t.Fatalf("counters after the rebuild: %+v, before %+v", st, before)
	}
	if v.Era() == v0.Era() || v.Timestamp() != s.LastCommit() {
		t.Fatalf("rebuild: era %d -> %d, at %d of %d", v0.Era(), v.Era(), v.Timestamp(), s.LastCommit())
	}
	assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	n++
	commitPost(t, s, n)
	acquire(ViewRefreshed)
}

// TestHeldViewsReadTheirStamps drives the overlay's stamped reads one event
// at a time: it holds every view of one era, and after each refresh compares
// each of them with a from-scratch compaction at its own timestamp. The
// events are the ways a refresh writes the shared overlay — appends to a row
// the held views have read, the era's first touch of a base row, a row key
// the era has not touched, a new page, a top level that grows, and appended
// nodes whose property rows the held views must not see — and the test
// checks that each really happened, so every held view older than a header
// takes the slow path.
func TestHeldViewsReadTheirStamps(t *testing.T) {
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	const base = 300 // persons 1..base; person n holds ordinal n-1
	commit := func(build func(tx *Txn) error) {
		t.Helper()
		tx := s.Begin()
		if err := build(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(func(tx *Txn) error {
		for n := uint32(1); n <= base; n++ {
			if err := tx.CreateNode(personID(n), Props{NewProp(PropFirstName, String("p"))}); err != nil {
				return err
			}
		}
		for n := uint32(2); n <= 10; n++ {
			if err := tx.AddKnows(personID(1), personID(n), int64(n)); err != nil {
				return err
			}
		}
		return tx.CreateNode(postID(1), nil)
	})
	v0, ev := s.AcquireView()
	if ev != ViewRebuilt {
		t.Fatalf("first view: %v", ev)
	}

	type held struct{ v, ref *SnapshotView }
	views := []held{{v0, s.ViewAt(v0.Timestamp())}}
	refresh := func(event string) *SnapshotView {
		t.Helper()
		v, ev := s.AcquireView()
		if ev != ViewRefreshed || v.Era() != v0.Era() {
			t.Fatalf("%s: %v in era %d, want a refresh in era %d", event, ev, v.Era(), v0.Era())
		}
		views = append(views, held{v, s.ViewAt(v.Timestamp())})
		for _, h := range views {
			if err := viewDiff(h.v, h.ref); err != nil {
				t.Fatalf("%s: view at %d: %v", event, h.v.Timestamp(), err)
			}
		}
		return v
	}
	knowsOut := rowKey(EdgeKnows, false)
	hdr := func(v *SnapshotView, key uint8, n uint32) *rowHdr {
		o, _ := v.ord(personID(n))
		return v.over.rows[key].load(o)
	}

	// Appends to a row every held view has read: person 1's base row of 9,
	// first touched by v1, then appended to again after it.
	commit(func(tx *Txn) error { return tx.AddKnows(personID(1), personID(11), 11) })
	v1 := refresh("first touch of a base row")
	commit(func(tx *Txn) error { return tx.AddKnows(personID(1), personID(12), 12) })
	refresh("appends to a row the views read")
	if h := hdr(v1, knowsOut, 1); h.ts <= v1.Timestamp() || len(h.at(v1.Timestamp())) != 10 || len(h.edges) != 11 {
		t.Fatalf("person 1's row as v1 sees it: header at %d holds %d entries, v1 at %d", h.ts, len(h.edges), v1.Timestamp())
	}
	commit(func(tx *Txn) error { return tx.AddKnows(personID(2), personID(12), 13) })
	refresh("first touch of a second base row")

	// A row key the era has not touched: its top level is created.
	likesOut := rowKey(EdgeLikes, false)
	if v1.over.rows[likesOut] != nil {
		t.Fatal("likes rows touched before the event")
	}
	commit(func(tx *Txn) error { return tx.AddEdge(personID(3), EdgeLikes, postID(1), 14) })
	refresh("a new row key")

	// A new page: person 250's ordinal is past the pages touched so far.
	last := views[len(views)-1].v
	if o, _ := last.ord(personID(250)); last.over.rows[knowsOut][o>>overPageBits].Load() != nil {
		t.Fatal("person 250's knows page exists before the event")
	}
	commit(func(tx *Txn) error { return tx.AddKnows(personID(250), personID(251), 15) })
	refresh("a new page")

	// A top level that grows: appended persons, each with a knows row,
	// take ordinals past the table's end, one commit at a time.
	before := len(last.over.rows[knowsOut])
	added := uint32(0)
	for ; len(views[len(views)-1].v.over.rows[knowsOut]) == before; added += 50 {
		commit(func(tx *Txn) error {
			for n := base + added + 1; n <= base+added+50; n++ {
				if err := tx.CreateNode(personID(n), Props{NewProp(PropFirstName, String("q"))}); err != nil {
					return err
				}
				if err := tx.AddKnows(personID(n), personID(4), int64(n)); err != nil {
					return err
				}
			}
			return nil
		})
		refresh("appended ordinals")
	}
	if len(last.over.rows[knowsOut]) != before {
		t.Fatal("the growth wrote the top level a held view reads")
	}
	commit(func(tx *Txn) error { return tx.AddKnows(personID(base+added), personID(5), 16) })
	refresh("appends past the grown top level")

	// Appended nodes with property rows, two commits in one refresh and one
	// more in the next, each also touching a base row: the held views share
	// the appended-ordinal lists and must read only their own prefix.
	next := base + added + 1
	for i, name := range []string{"a", "b", "c"} {
		commit(func(tx *Txn) error {
			if err := tx.CreateNode(personID(next), Props{NewProp(PropLastName, String(name))}); err != nil {
				return err
			}
			return tx.AddKnows(personID(6), personID(next), int64(next))
		})
		next++
		if i != 0 {
			refresh("appended nodes with property rows")
		}
	}
	cur := views[len(views)-1].v
	for n, want := range map[uint32]string{next - 3: "a", next - 2: "b", next - 1: "c"} {
		if got := cur.Prop(personID(n), PropLastName).Str(); got != want {
			t.Fatalf("person %d's lastName: %q, want %q", n, got, want)
		}
		if o, _ := cur.ord(personID(n)); int(o) < len(cur.base.nodes) {
			t.Fatalf("person %d holds base ordinal %d", n, o)
		}
	}
}

// TestRefreshedViewMemCountsEachEdgeOnce pins ViewMem.Edges on the overlay:
// a first-touched base row's base part is already in the csr's entries, so
// the refreshed view — and every view of its era still held — must report
// what a compaction at the same timestamp stores.
func TestRefreshedViewMemCountsEachEdgeOnce(t *testing.T) {
	r := xrand.New(11)
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	var pop []ids.ID
	var held []*SnapshotView
	for step := 1; step <= 40; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		v := s.CurrentView()
		held = append(held, v)
		for _, h := range held {
			if got, want := h.MemStats().Edges, s.ViewAt(h.Timestamp()).MemStats().Edges; got != want {
				t.Fatalf("step %d: view at %d reports %d edges, a compaction at its timestamp %d", step, h.Timestamp(), got, want)
			}
		}
	}
	if st := s.ViewStats(); st.Refreshes == 0 || st.EraBumps != 0 {
		t.Fatalf("the steps after the first must all refresh one era: %+v", st)
	}
}

// commitPost commits one transaction creating post n.
func commitPost(t *testing.T, s *Store, n int) {
	t.Helper()
	tx := s.Begin()
	if err := tx.CreateNode(ids.Compose(ids.KindPost, int64(n), 0), nil); err != nil {
		t.Fatal(err)
	}
	commitOrFatal(t, tx)
}

// TestRefreshCostIndependentOfOverlay is the O(delta) contract in counts:
// with compaction off, refreshing one commit onto an overlay of ~50 K
// entries allocates no more than twice the bytes and objects the same
// refresh allocates onto ~100 entries — and the commit appends to a hub row
// of more than 10 K entries, which a row copied on write would copy whole.
// Both stay under an absolute ceiling: the refresh allocates the view, the
// hub row's new header and one block for each of the three rows the era
// first touches (the new person's two, its knows partner's), plus the new
// person's property header.
func TestRefreshCostIndependentOfOverlay(t *testing.T) {
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	hub := ids.Compose(ids.KindPlace, 0, 1)
	const fans = 10_500
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	person := func(i int) ids.ID { return ids.Compose(ids.KindPerson, int64(1+i/1000), uint32(i%1000)) }
	tx := s.Begin()
	must(tx.CreateNode(hub, nil))
	for i := 0; i < fans; i++ {
		must(tx.CreateNode(person(i), Props{NewProp(PropCreationDate, Int64(int64(i)))}))
		must(tx.AddEdge(person(i), EdgeIsLocatedIn, hub, int64(i)))
	}
	must(tx.Commit())
	s.CurrentView()

	// commit lands one transaction of the Interactive update shape: a new
	// node with an edge onto the hub and an edge onto an existing node.
	seq := 0
	commit := func() {
		seq++
		p := person(fans + seq)
		tx := s.Begin()
		must(tx.CreateNode(p, Props{NewProp(PropCreationDate, Int64(int64(seq)))}))
		must(tx.AddEdge(p, EdgeIsLocatedIn, hub, int64(seq)))
		must(tx.AddKnows(p, person(seq*7%fans), int64(seq)))
		must(tx.Commit())
	}
	// refreshCost is the cheapest of a few single-commit refreshes, which
	// keeps the occasional geometric regrowth of a shared array out of the
	// comparison (that cost is amortised, not per refresh).
	refreshCost := func() (bytes, objects uint64) {
		bytes, objects = math.MaxUint64, math.MaxUint64
		var m0, m1 runtime.MemStats
		for i := 0; i < 8; i++ {
			commit()
			runtime.ReadMemStats(&m0)
			_, ev := s.AcquireView()
			runtime.ReadMemStats(&m1)
			if ev != ViewRefreshed {
				t.Fatalf("acquisition: %v, want refresh", ev)
			}
			bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
			objects = min(objects, m1.Mallocs-m0.Mallocs)
		}
		return bytes, objects
	}
	growTo := func(entries int64) {
		for s.ViewStats().OverlayEntries < entries {
			commit()
			s.CurrentView()
		}
	}

	growTo(100)
	smallBytes, smallObjs := refreshCost()
	growTo(50_000)
	bigBytes, bigObjs := refreshCost()
	t.Logf("one-commit refresh: %d B / %d objects at ~100 overlay entries, %d B / %d objects at ~50K",
		smallBytes, smallObjs, bigBytes, bigObjs)
	if bigBytes > 2*smallBytes || bigObjs > 2*smallObjs {
		t.Fatalf("refresh cost grew with the overlay: %d B / %d objects at ~100 entries, %d B / %d objects at ~50K",
			smallBytes, smallObjs, bigBytes, bigObjs)
	}
	const maxBytes, maxObjs = 1536, 8 // measured on amd64: 720-768 B in 6 objects
	if max(smallBytes, bigBytes) > maxBytes || max(smallObjs, bigObjs) > maxObjs {
		t.Fatalf("a one-commit refresh allocates %d B / %d objects, ceiling %d B / %d objects",
			max(smallBytes, bigBytes), max(smallObjs, bigObjs), maxBytes, maxObjs)
	}
	if got := len(s.CurrentView().In(hub, EdgeIsLocatedIn)); got != fans+seq {
		t.Fatalf("hub row has %d entries, want %d", got, fans+seq)
	}
	if st := s.ViewStats(); st.EraBumps != 0 || st.Rebuilds != 1 {
		t.Fatalf("the test must not compact: %+v", st)
	}
}

// TestViewRefreshEquivalenceRingOverflow alternates short bursts, which
// the next acquisition refreshes, with bursts whose backlog passes the
// compaction trigger, which drop the view's cursor (the commit log's
// counterpart of the delta ring's overflow): every acquisition after a drop
// must fall back to one correct rebuild, and the refreshes after it must be
// correct again.
func TestViewRefreshEquivalenceRingOverflow(t *testing.T) {
	r := xrand.New(5)
	s := New()
	var pop []ids.ID
	step := 1
	advance := func(want ViewEvent) {
		t.Helper()
		v, ev := s.AcquireView()
		if ev != want {
			t.Fatalf("step %d: %v, want %v", step, ev, want)
		}
		assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
		tx := s.Begin()
		tx.readonly = true
		assertViewMatchesTxn(t, s, v, tx, pop)
	}
	pop = randomGraphStep(t, s, r, pop, step)
	advance(ViewRebuilt)
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for i := 0; i < 3; i++ {
			step++
			pop = randomGraphStep(t, s, r, pop, step)
		}
		advance(ViewRefreshed)
		for trigger := s.ViewStats().CompactTrigger; s.ViewStats().Overflows == int64(round); {
			if step++; step > 100_000 || trigger <= 0 {
				t.Fatalf("the backlog never passed the trigger %d", trigger)
			}
			pop = randomGraphStep(t, s, r, pop, step)
		}
		advance(ViewRebuilt)
	}
	if st := s.ViewStats(); st.Overflows != rounds || st.Rebuilds != 1+rounds || st.Refreshes != rounds {
		t.Fatalf("counters: %+v", st)
	}
}

// TestRingOverflowDoesNotAliasPendingDeltas pins the contract of a range
// the commit log hands out: it stays intact while commits append and the
// flusher trims. The one case where the log trims past a range a reader may
// still hold is a dropped view cursor — a refresh in progress when a burst
// passes the trigger — so the drop must move the log to a new array, not
// clear and reuse the slots the refresh reads.
func TestRingOverflowDoesNotAliasPendingDeltas(t *testing.T) {
	p, _, err := Open(t.TempDir(), manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Store
	v := s.CurrentView()
	for i := 1; i <= 2; i++ {
		commitPost(t, s, i)
	}
	ds, ok := s.log.since(v.ts, v.ts+2) // what a refresh reads
	if !ok || len(ds) != 2 {
		t.Fatalf("range since the view: ok=%v len=%d", ok, len(ds))
	}
	// One commit past the trigger drops the view's cursor while ds is held;
	// the flusher then trims everything, and later commits append.
	tx := s.Begin()
	for i := 0; i <= minViewCompactTrigger; i++ {
		if err := tx.CreateNode(ids.Compose(ids.KindComment, int64(i+1), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	commitOrFatal(t, tx)
	if st := s.ViewStats(); st.Overflows != 1 {
		t.Fatalf("the burst did not drop the view's cursor: %+v", st)
	}
	for i := 3; i <= 6; i++ {
		if err := s.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		commitPost(t, s, i)
	}
	if ds[0] == nil || ds[1] == nil || ds[0].ts != v.ts+1 || ds[1].ts != v.ts+2 {
		t.Fatalf("held range changed under the reader: %v %v", ds[0], ds[1])
	}
}

// TestViewRefreshOrdinalStability pins the era contract: a delta refresh
// never reassigns an existing node's ordinal — new nodes get appended
// ordinals — while a recompaction bumps the era and may reassign.
func TestViewRefreshOrdinalStability(t *testing.T) {
	s := New()
	r := xrand.New(11)
	var pop []ids.ID
	pop = randomGraphStep(t, s, r, pop, 1)
	v1 := s.CurrentView()
	n1 := v1.NumNodes()

	pop = randomGraphStep(t, s, r, pop, 2)
	v2 := s.CurrentView()
	if v2.Era() != v1.Era() {
		t.Fatalf("sparse commit bumped the era: %d -> %d", v1.Era(), v2.Era())
	}
	for o := int32(0); o < int32(n1); o++ {
		id := v1.idAt(o)
		o2, ok := v2.ord(id)
		if !ok || o2 != o {
			t.Fatalf("refresh moved ordinal of %v: %d -> %d (ok=%v)", id, o, o2, ok)
		}
	}
	for o := int32(n1); o < int32(v2.NumNodes()); o++ {
		id := v2.idAt(o)
		if v1.Exists(id) {
			t.Fatalf("appended ordinal %d holds pre-existing node %v", o, id)
		}
		if back, ok := v2.ord(id); !ok || back != o {
			t.Fatalf("appended ordinal round trip: ord(idAt(%d)) = %d, %v", o, back, ok)
		}
	}

	// Force a recompaction: the era must bump and ordinals return to
	// ascending ID order.
	s.SetViewCompactThreshold(0)
	pop = randomGraphStep(t, s, r, pop, 3)
	v3 := s.CurrentView()
	if v3.Era() == v2.Era() {
		t.Fatal("forced recompaction kept the era")
	}
	var prev ids.ID
	for o := int32(0); o < int32(v3.NumNodes()); o++ {
		id := v3.idAt(o)
		if o > 0 && id <= prev {
			t.Fatal("recompacted ordinals not in ascending ID order")
		}
		prev = id
	}
	_ = pop
}

// TestViewRefreshCounters pins the acceptance contract that the refresh
// path — not a rebuild — is what CurrentView takes after a sparse commit,
// observable through the maintenance counters.
func TestViewRefreshCounters(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.CreateNode(personID(800), Props{NewProp(PropFirstName, String("a"))}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("first acquisition: %v, want rebuild", ev)
	}
	if _, ev := s.AcquireView(); ev != ViewHit {
		t.Fatalf("repeat acquisition: %v, want hit", ev)
	}

	tx = s.Begin()
	tx.CreateNode(personID(801), nil)
	tx.AddKnows(personID(800), personID(801), 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ev := s.AcquireView(); ev != ViewRefreshed {
		t.Fatalf("post-sparse-commit acquisition: %v, want refresh", ev)
	}

	st := s.ViewStats()
	if st.Refreshes != 1 || st.Rebuilds != 1 || st.EraBumps != 0 {
		t.Fatalf("counters after sparse commit: %+v", st)
	}

	// Threshold 0 disables refreshing: the next advance must recompact and
	// bump the era.
	s.SetViewCompactThreshold(0)
	tx = s.Begin()
	tx.CreateNode(personID(802), Props{NewProp(PropFirstName, String("b"))})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("acquisition with threshold 0: want rebuild")
	}
	st = s.ViewStats()
	if st.Rebuilds != 2 || st.EraBumps != 1 {
		t.Fatalf("counters after forced recompaction: %+v", st)
	}
}

// logLen returns how many write sets the commit log keeps.
func logLen(s *Store) int {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return len(s.log.buf) - s.log.lo
}

// TestNoDeltasBeforeFirstView pins that the commit log keeps only what a
// consumer has yet to read: an in-memory store nobody has read keeps no
// write set (there is no view to apply it to), a durable one keeps none
// once the flusher has written it, and from the first view on the log keeps
// the commits since the view until the next acquisition refreshes from
// them.
func TestNoDeltasBeforeFirstView(t *testing.T) {
	r := xrand.New(71)
	s := New()
	var pop []ids.ID
	for step := 1; step <= 20; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
	}
	if n := logLen(s); n != 0 {
		t.Fatalf("an in-memory store with no view keeps %d write sets", n)
	}
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("first acquisition: %v, want rebuild", ev)
	}
	pop = randomGraphStep(t, s, r, pop, 21)
	if n := logLen(s); n != 1 {
		t.Fatalf("after the first view the log keeps %d write sets of one commit", n)
	}
	v, ev := s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("acquisition after the first view: %v, want refresh", ev)
	}
	if n := logLen(s); n != 0 {
		t.Fatalf("after the refresh the log keeps %d write sets", n)
	}
	assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	tx := s.Begin()
	tx.readonly = true
	assertViewMatchesTxn(t, s, v, tx, pop)

	p, _, err := Open(t.TempDir(), manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for n := 1; n <= 20; n++ {
		commitPerson(t, p.Store, n)
	}
	if err := p.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if n := logLen(p.Store); n != 0 {
		t.Fatalf("a durable store with no view keeps %d write sets after FlushWAL", n)
	}
}

// TestBurstWithoutReaderRefreshes is a 20 K-commit burst nobody reads, with
// the compaction trigger above its overlay cost: the next acquisition
// applies the whole backlog as one refresh, where a bounded delta ring
// would have overflowed into a rebuild.
func TestBurstWithoutReaderRefreshes(t *testing.T) {
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	commitPost(t, s, 0)
	s.CurrentView()
	const burst = 20_000
	for i := 1; i <= burst; i++ {
		commitPost(t, s, i)
	}
	v, ev := s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("acquisition after the burst: %v, want refresh", ev)
	}
	if st := s.ViewStats(); st.Rebuilds != 1 || st.Overflows != 0 {
		t.Fatalf("the burst cost a rebuild: %+v", st)
	}
	if v.Timestamp() != 1+burst {
		t.Fatalf("view at %d, want %d", v.Timestamp(), 1+burst)
	}
	assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
}

// TestBacklogPastTriggerDropsViewCursor pins the one bound on a reader that
// stops: once the commits since the cached view cost more overlay entries
// than the compaction trigger, the log drops the view's cursor, once, and
// keeps nothing for the view from then on; the next acquisition rebuilds
// inline and registers the cursor again, so the one after refreshes.
func TestBacklogPastTriggerDropsViewCursor(t *testing.T) {
	s := New()
	commitPost(t, s, 0)
	s.CurrentView()
	st0 := s.ViewStats()
	// A post creation costs one overlay entry: one commit past the trigger
	// drops the cursor, and twice as many commits again drop nothing more.
	n := int(st0.CompactTrigger) + 1
	for i := 1; i <= 3*n; i++ {
		commitPost(t, s, i)
		if got := s.ViewStats().Overflows - st0.Overflows; got != int64(min(i/n, 1)) {
			t.Fatalf("after %d commits: %d cursor drops, trigger %d", i, got, st0.CompactTrigger)
		}
		if i >= n && logLen(s) != 0 {
			t.Fatalf("after the drop the log keeps %d write sets", logLen(s))
		}
	}
	v, ev := s.AcquireView()
	if ev != ViewRebuilt {
		t.Fatalf("acquisition after the drop: %v, want rebuild", ev)
	}
	if st := s.ViewStats(); st.Rebuilds != st0.Rebuilds+1 || st.Overflows != st0.Overflows+1 {
		t.Fatalf("counters after the rebuild: %+v", st)
	}
	assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	commitPost(t, s, 3*n+1)
	if _, ev := s.AcquireView(); ev != ViewRefreshed {
		t.Fatalf("acquisition after the rebuild: %v, want refresh", ev)
	}
}

// TestFirstViewRacesCommitters builds the first view while four committers
// run: each commit lands either at or below the build's timestamp or in the
// ring, so every later acquisition refreshes without a gap.
func TestFirstViewRacesCommitters(t *testing.T) {
	const writers, perWriter = 4, 150
	s := New()
	tx := s.Begin()
	for i := uint32(1); i <= 2000; i++ {
		if err := tx.CreateNode(personID(i), Props{NewProp(PropCreationDate, Int64(int64(i)))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddKnows(personID(i), personID(1+i%2000), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin()
				id := ids.Compose(ids.KindPost, int64(i+1), uint32(w))
				err := errors.Join(
					tx.CreateNode(id, Props{NewProp(PropCreationDate, Int64(int64(i)))}),
					tx.AddEdge(id, EdgeHasCreator, personID(uint32(1+i)), int64(i)),
					tx.Commit())
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for s.LastCommit() < 1+writers { // let the committers get going
		runtime.Gosched()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := s.CurrentView()
		assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	}
	if v := s.CurrentView(); v.Timestamp() != 1+writers*perWriter {
		t.Fatalf("final view at %d, want %d", v.Timestamp(), 1+writers*perWriter)
	}
	if st := s.ViewStats(); st.Rebuilds != 1 || st.Overflows != 0 {
		t.Fatalf("the first build must be the only one: %+v", st)
	}
}
