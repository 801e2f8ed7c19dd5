package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// nodeGraphCommit commits one transaction creating the given nodes, each
// with its own creation date, and a few random edges over pop plus the new
// nodes, so that every node's rows and properties tell it apart from its
// neighbours in ID order. Returns the grown population.
func nodeGraphCommit(t *testing.T, s *Store, r *xrand.Rand, pop []ids.ID, created ...ids.ID) []ids.ID {
	t.Helper()
	tx := s.Begin()
	for _, id := range created {
		props := Props{
			NewProp(PropFirstName, String([]string{"ada", "bob", "eve"}[r.Intn(3)])),
			NewProp(PropCreationDate, Int64(int64(id))),
		}
		if err := tx.CreateNode(id, props); err != nil {
			t.Fatal(err)
		}
		pop = append(pop, id)
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		if et := viewEdgeTypes[r.Intn(len(viewEdgeTypes))]; et == EdgeKnows {
			_ = tx.AddKnows(a, b, int64(i))
		} else {
			_ = tx.AddEdge(a, et, b, int64(i))
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return pop
}

// assertNodeMatchesID requires every read through n on r to equal the
// same read through ByID(n.ID()), the handle of a node read once.
func assertNodeMatchesID(t *testing.T, name string, r Reader, n Node) {
	t.Helper()
	id := n.ID()
	byID := ByID(id)
	for _, et := range viewEdgeTypes {
		if got, want := r.OutOf(n, et), r.OutOf(byID, et); !edgesEqual(got, want) {
			t.Fatalf("%s: OutOf(%v, %v) = %v, by ID %v", name, id, et, got, want)
		}
		if got, want := r.InOf(n, et), r.InOf(byID, et); !edgesEqual(got, want) {
			t.Fatalf("%s: InOf(%v, %v) = %v, by ID %v", name, id, et, got, want)
		}
		if got, want := r.OutDegreeOf(n, et), r.OutDegreeOf(byID, et); got != want {
			t.Fatalf("%s: OutDegreeOf(%v, %v) = %d, by ID %d", name, id, et, got, want)
		}
		if got, want := r.InDegreeOf(n, et), r.InDegreeOf(byID, et); got != want {
			t.Fatalf("%s: InDegreeOf(%v, %v) = %d, by ID %d", name, id, et, got, want)
		}
	}
	for _, key := range []PropKey{PropFirstName, PropCreationDate} {
		if got, want := r.PropOf(n, key), r.PropOf(byID, key); got != want {
			t.Fatalf("%s: PropOf(%v, %v) = %#v, by ID %#v", name, id, key, got, want)
		}
	}
	got, gotOK := r.PropsOf(n)
	want, wantOK := r.PropsOf(byID)
	if gotOK != wantOK || !propsEqual(got, want) {
		t.Fatalf("%s: PropsOf(%v) = %v/%v, by ID %v/%v", name, id, got, gotOK, want, wantOK)
	}
}

// assertScanMatchesID walks every kind's scan on r: element i must be
// IDs()[i], and every read of it must equal its read through ByID. A Node
// resolved on r from a probe ID (one never created among them) must too.
// It returns how many scanned nodes came out resolved to an ordinal.
func assertScanMatchesID(t *testing.T, name string, r Reader, probes []ids.ID) (resolved int) {
	t.Helper()
	for kind := ids.Kind(0); kind < ids.KindLimit; kind++ {
		scan := r.ScanKind(kind)
		list := scan.IDs()
		if scan.Len() != len(list) {
			t.Fatalf("%s: kind %d scans %d nodes, lists %d", name, kind, scan.Len(), len(list))
		}
		for i, id := range list {
			n := scan.At(i)
			if n.ID() != id {
				t.Fatalf("%s: kind %d position %d scans %v, lists %v", name, kind, i, n.ID(), id)
			}
			if n.ord >= 0 {
				resolved++
			}
			assertNodeMatchesID(t, name, r, n)
		}
	}
	for _, id := range probes {
		assertNodeMatchesID(t, name, r, r.Resolve(id))
	}
	return resolved
}

// rowCounts tallies the neighbours assertRowsMatch met: handed over
// resolved (from a row carrying ordinals) or unresolved, and the longest
// row.
type rowCounts struct{ resolved, unresolved, longest int }

// assertRowsMatch reads every row of every visible node of r as a NodeRow
// and through ByID, the ByID read first unless nodesFirst, and requires
// them to agree: Edges() equals OutOf or InOf and is capped at its length,
// each Node(i) is entry i's neighbour, and every read of it equals its
// read through ByID. Then it appends to the row OutOf or InOf returned and
// requires the next NodeRow of the row to hand over the same Nodes.
func assertRowsMatch(t *testing.T, name string, r Reader, nodesFirst bool) (c rowCounts) {
	t.Helper()
	var nodes []Node
	for kind := ids.Kind(0); kind < ids.KindLimit; kind++ {
		for _, id := range r.ScanKind(kind).IDs() {
			n := r.Resolve(id)
			for _, et := range viewEdgeTypes {
				for _, in := range []bool{false, true} {
					byID, byNodes := r.OutOf, r.OutNodes
					if in {
						byID, byNodes = r.InOf, r.InNodes
					}
					var want []Edge
					var row NodeRow
					if nodesFirst {
						row = byNodes(n, et)
						want = byID(ByID(id), et)
					} else {
						want = byID(ByID(id), et)
						row = byNodes(n, et)
					}
					got := row.Edges()
					if !edgesEqual(got, want) || row.Len() != len(want) || cap(got) != len(got) || cap(want) != len(want) {
						t.Fatalf("%s: %v type %v in=%v: Nodes row %v (len %d, cap %d), by ID %v (cap %d)",
							name, id, et, in, got, row.Len(), cap(got), want, cap(want))
					}
					c.longest = max(c.longest, len(want))
					nodes = nodes[:0]
					for i, e := range want {
						nb := row.Node(i)
						if nb.ID() != e.To {
							t.Fatalf("%s: %v type %v in=%v: Node(%d) is %v, entry %v", name, id, et, in, i, nb.ID(), e.To)
						}
						if nb.ord >= 0 {
							c.resolved++
						} else {
							c.unresolved++
						}
						assertNodeMatchesID(t, name+", a row's Node", r, nb)
						nodes = append(nodes, nb)
					}
					_ = append(byID(ByID(id), et), Edge{})
					again := byNodes(n, et)
					for i, nb := range nodes {
						if again.Node(i) != nb {
							t.Fatalf("%s: %v type %v in=%v: after an append to its row, Node(%d) is %+v, was %+v",
								name, id, et, in, i, again.Node(i), nb)
						}
					}
				}
			}
		}
	}
	return c
}

// TestNodeReadsMatchIDReads pins the Node contract (Reader, "Nodes") on
// every reader a Node meets: a read through a resolved handle (Resolve,
// KindScan.At, NodeRow.Node) equals the same read through ByID on a Txn, a
// fresh view, a refreshed view with appended nodes, the view an inline
// rebuild makes after commits out of ID order (where scan positions no
// longer match ordinals), a WithCancel view, and views handed Nodes
// resolved on another view — of the same era with more nodes, of an older
// era whose ordinals the rebuild reassigned, and of another store. On each
// of them every row read as Nodes must agree with its read through ByID
// (assertRowsMatch).
func TestNodeReadsMatchIDReads(t *testing.T) {
	r := xrand.New(43)
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	var pop []ids.ID
	// Created in ID order, one commit per step, like a bulk load's kinds.
	for step := int64(1); step <= 30; step++ {
		pop = nodeGraphCommit(t, s, r, pop,
			ids.Compose(ids.KindPerson, 10*step, 0), ids.Compose(ids.KindPost, 10*step, 0))
	}
	// A hub whose likes rows fill more than two packed ordinal slots.
	tx := s.Begin()
	for i := 1; i <= 9; i++ {
		_ = tx.AddEdge(pop[0], EdgeLikes, pop[2*i], int64(i))
		_ = tx.AddEdge(pop[2*i+1], EdgeLikes, pop[0], int64(i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	never := ids.Compose(ids.KindPerson, 1<<30, 0)
	probes := append([]ids.ID{never}, pop...)

	s.View(func(tx *Txn) {
		if got := assertScanMatchesID(t, "txn", tx, probes); got != 0 {
			t.Fatalf("txn: %d scanned nodes carry an ordinal", got)
		}
		if c := assertRowsMatch(t, "txn", tx, false); c.resolved != 0 {
			t.Fatalf("txn: %d row neighbours carry an ordinal", c.resolved)
		}
	})

	fresh, ev := s.AcquireView()
	if ev != ViewRebuilt {
		t.Fatalf("first view: %v", ev)
	}
	if got := assertScanMatchesID(t, "fresh view", fresh, probes); got != len(pop) {
		t.Fatalf("fresh view: %d of %d scanned nodes resolved by position", got, len(pop))
	}
	// Every row of a fresh view is a base row: each neighbour comes
	// resolved, whether the row was read by ID first or as Nodes first (a
	// second view at the same timestamp has a decode cache of its own).
	for _, c := range []struct {
		v          *SnapshotView
		nodesFirst bool
	}{{fresh, false}, {s.ViewAt(fresh.Timestamp()), true}} {
		got := assertRowsMatch(t, "fresh view", c.v, c.nodesFirst)
		if got.resolved == 0 || got.unresolved != 0 || got.longest < 9 {
			t.Fatalf("fresh view (Nodes first: %v): %+v, want every neighbour resolved and a row of 9", c.nodesFirst, got)
		}
	}

	// Appended nodes land in the overlay: the scan yields them unresolved.
	for step := int64(31); step <= 35; step++ {
		pop = nodeGraphCommit(t, s, r, pop, ids.Compose(ids.KindPerson, 10*step, 0))
	}
	probes = append(probes, pop[len(pop)-5:]...)
	refreshed, ev := s.AcquireView()
	if ev != ViewRefreshed || refreshed.Era() != fresh.Era() {
		t.Fatalf("after appends: %v, era %d -> %d", ev, fresh.Era(), refreshed.Era())
	}
	assertScanMatchesID(t, "refreshed view", refreshed, probes)
	if c := assertRowsMatch(t, "refreshed view", refreshed, true); c.resolved == 0 || c.unresolved == 0 {
		t.Fatalf("refreshed view: %+v, want base rows and overlay rows", c)
	}

	// The same era's fresh view holds fewer ordinals: Nodes of the appended
	// nodes are past its NumNodes and read as absent, by ID.
	var newer []Node
	for _, id := range probes {
		newer = append(newer, refreshed.Resolve(id))
	}
	for _, n := range newer {
		assertNodeMatchesID(t, "fresh view, Nodes of its refresh", fresh, n)
	}

	// Commits out of ID order, each ID between two earlier ones, so the
	// rebuilt base reassigns every later ordinal and the kind list (commit
	// order) no longer runs in ordinal order.
	s.SetViewCompactThreshold(1)
	for step := int64(34); step >= 1; step-- {
		pop = nodeGraphCommit(t, s, r, pop, ids.Compose(ids.KindPerson, 10*step+5, 0))
	}
	rebuilt, ev := s.AcquireView()
	if ev != ViewRebuilt || rebuilt.Era() == refreshed.Era() {
		t.Fatalf("after out-of-order commits: %v, era %d -> %d", ev, refreshed.Era(), rebuilt.Era())
	}
	probes = append(probes, pop[len(pop)-34:]...)
	if got := assertScanMatchesID(t, "rebuilt view", rebuilt, probes); got == 0 || got == len(pop) {
		t.Fatalf("rebuilt view: %d of %d scanned nodes resolved by position, want some but not all", got, len(pop))
	}

	for _, c := range []struct {
		v          *SnapshotView
		nodesFirst bool
	}{{rebuilt, true}, {s.ViewAt(rebuilt.Timestamp()), false}} {
		if got := assertRowsMatch(t, "rebuilt view", c.v, c.nodesFirst); got.resolved == 0 || got.unresolved != 0 {
			t.Fatalf("rebuilt view (Nodes first: %v): %+v, want every neighbour resolved", c.nodesFirst, got)
		}
	}

	// Nodes of the older era carry ordinals the rebuild reassigned.
	for _, n := range newer {
		assertNodeMatchesID(t, "rebuilt view, Nodes of an older era", rebuilt, n)
	}
	for kind := ids.Kind(0); kind < ids.KindLimit; kind++ {
		scan := refreshed.ScanKind(kind)
		for i := 0; i < scan.Len(); i++ {
			assertNodeMatchesID(t, "rebuilt view, scanned Nodes of an older era", rebuilt, scan.At(i))
		}
	}

	// Nodes of another store's view, whose nodes share these IDs at other
	// ordinals.
	other := New()
	var otherPop []ids.ID
	for i := len(pop) - 1; i >= 0; i -= 2 {
		otherPop = nodeGraphCommit(t, other, r, otherPop, pop[i])
	}
	ov := other.CurrentView()
	for _, id := range probes {
		assertNodeMatchesID(t, "rebuilt view, Nodes of another store", rebuilt, ov.Resolve(id))
	}

	// A WithCancel view reads Nodes like its parent, and its Node reads
	// still poll the request's context.
	ctx, cancel := context.WithCancel(context.Background())
	cv := rebuilt.WithCancel(ctx)
	assertScanMatchesID(t, "cancellable view", cv, probes)
	assertRowsMatch(t, "cancellable view", cv, true)
	cancel()
	n := cv.ScanKind(ids.KindPerson).At(0)
	for name, read := range map[string]func(){
		"OutOf":    func() { cv.OutOf(n, EdgeKnows) },
		"InOf":     func() { cv.InOf(n, EdgeKnows) },
		"PropOf":   func() { cv.PropOf(n, PropFirstName) },
		"PropsOf":  func() { cv.PropsOf(n) },
		"OutNodes": func() { cv.OutNodes(n, EdgeKnows) },
		"InNodes":  func() { cv.InNodes(n, EdgeKnows) },
	} {
		err := func() (err error) {
			defer CatchCanceled(&err)
			for i := 0; i <= cancelEvery; i++ {
				read()
			}
			return nil
		}()
		if !errors.Is(err, ErrQueryCanceled) {
			t.Fatalf("%s on a canceled view: %v, want ErrQueryCanceled", name, err)
		}
	}
}

// TestAdjCacheBytesCountsOrdinals requires ViewMem.AdjCacheBytes to grow by
// 16 bytes an entry for a row decoded by ID and by 4 more an entry once the
// row is read as Nodes, and by nothing for a row read again either way.
func TestAdjCacheBytesCountsOrdinals(t *testing.T) {
	s := New()
	tx := s.Begin()
	var ps []ids.ID
	for i := int64(1); i <= 10; i++ {
		ps = append(ps, ids.Compose(ids.KindPerson, i, 0))
		if err := tx.CreateNode(ps[len(ps)-1], nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range ps[1:] {
		_ = tx.AddEdge(ps[0], EdgeLikes, to, 1)
	}
	for _, to := range ps[2:5] {
		_ = tx.AddEdge(ps[1], EdgeLikes, to, 1)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v := s.CurrentView()
	cached := func() int64 { return v.MemStats().AdjCacheBytes }
	a, b := v.Resolve(ps[0]), v.Resolve(ps[1])
	v.OutOf(ByID(ps[0]), EdgeLikes) // allocates the csr's row table
	for _, step := range []struct {
		name string
		read func()
		grow int64
	}{
		{"row a as Nodes", func() { v.OutNodes(a, EdgeLikes) }, 9 * 4},
		{"row a by ID again", func() { v.OutOf(ByID(ps[0]), EdgeLikes) }, 0},
		{"row b by ID", func() { v.OutOf(b, EdgeLikes) }, 3 * 16},
		{"row b as Nodes", func() { v.OutNodes(b, EdgeLikes) }, 3 * 4},
		{"row b as Nodes again", func() { v.OutNodes(b, EdgeLikes) }, 0},
		{"row a as Nodes again", func() { v.OutNodes(a, EdgeLikes) }, 0},
	} {
		before := cached()
		step.read()
		if got := cached() - before; got != step.grow {
			t.Fatalf("%s: AdjCacheBytes grew by %d, want %d", step.name, got, step.grow)
		}
	}
}

// TestNodeRowsUnderConcurrentReaders races readers over cold views, half
// of them reading each row by ID and half as Nodes, so a row's decode and
// its redecode with ordinals publish concurrently. Every read must match
// the Txn's row, and every Node a row hands over must read its own
// properties.
func TestNodeRowsUnderConcurrentReaders(t *testing.T) {
	const readers = 4
	r := xrand.New(44)
	s := New()
	var pop []ids.ID
	for step := int64(1); step <= 30; step++ {
		pop = nodeGraphCommit(t, s, r, pop,
			ids.Compose(ids.KindPerson, 10*step, 0), ids.Compose(ids.KindPost, 10*step, 0))
	}
	type rowKey struct {
		id ids.ID
		et EdgeType
		in bool
	}
	want := map[rowKey][]Edge{}
	s.View(func(tx *Txn) {
		for _, id := range pop {
			for _, et := range viewEdgeTypes {
				want[rowKey{id, et, false}] = tx.OutOf(ByID(id), et)
				want[rowKey{id, et, true}] = tx.InOf(ByID(id), et)
			}
		}
	})
	for round := 0; round < 5; round++ {
		v := s.ViewAt(s.clock.Load())
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k, id := range pop {
					n := v.Resolve(id)
					for _, et := range viewEdgeTypes {
						for _, in := range []bool{false, true} {
							var got []Edge
							var err error
							byID, byNodes := v.OutOf, v.OutNodes
							if in {
								byID, byNodes = v.InOf, v.InNodes
							}
							if (g+k)%2 == 0 {
								got = byID(ByID(id), et)
							} else {
								row := byNodes(n, et)
								got = row.Edges()
								for i := range row.Len() {
									nb := row.Node(i)
									if d := v.PropOf(nb, PropCreationDate).Int(); nb.ID() != got[i].To || d != int64(got[i].To) {
										err = fmt.Errorf("Node(%d) = %v reads creation date %d, entry %v", i, nb.ID(), d, got[i].To)
									}
								}
							}
							if !edgesEqual(got, want[rowKey{id, et, in}]) {
								err = fmt.Errorf("row %v", got)
							}
							if err != nil {
								t.Errorf("round %d reader %d: %v type %v in=%v: %v", round, g, id, et, in, err)
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// assertIndexes requires every kind's scan on r to take each Node back to
// where At yields it: Index(At(i)) is i when At(i) is resolved and -1 when
// it is not, the node Resolve makes lands at the same place, and every
// other kind's scan answers -1. Every neighbour a row hands over resolved
// must map to its position in its kind's scan when At resolves that
// position. It returns the resolved positions and mapped neighbours.
func assertIndexes(t *testing.T, name string, r Reader) (resolved, neighbours int) {
	t.Helper()
	var scans [ids.KindLimit]KindScan
	pos := map[ids.ID]int{}
	for kind := range scans {
		scans[kind] = r.ScanKind(ids.Kind(kind))
		for i, id := range scans[kind].IDs() {
			pos[id] = i
		}
	}
	for kind, scan := range scans {
		for i := range scan.Len() {
			n, want := scan.At(i), -1
			if n.ord >= 0 {
				want = i
				resolved++
			}
			if got := scan.Index(n); got != want {
				t.Fatalf("%s: kind %d: Index(At(%d)) = %d, want %d (%+v)", name, kind, i, got, want, n)
			}
			if got := scan.Index(r.Resolve(n.ID())); got != want {
				t.Fatalf("%s: kind %d: Index(Resolve(%v)) = %d, want %d", name, kind, n.ID(), got, want)
			}
			for other, s := range scans {
				if other != kind && s.Index(n) != -1 {
					t.Fatalf("%s: kind %d's scan finds %v of kind %d at %d", name, other, n.ID(), kind, s.Index(n))
				}
			}
			for _, et := range viewEdgeTypes {
				row := r.OutNodes(n, et)
				for j := range row.Len() {
					nb := row.Node(j)
					s, p := scans[nb.ID().Kind()], pos[nb.ID()]
					want := -1
					if nb.ord >= 0 && s.At(p).ord >= 0 {
						want = p
						neighbours++
					}
					if got := s.Index(nb); got != want {
						t.Fatalf("%s: neighbour %v of %v (%v): Index %d, want %d", name, nb.ID(), n.ID(), et, got, want)
					}
				}
			}
		}
	}
	return resolved, neighbours
}

// TestKindScanIndex pins KindScan.Index as At's inverse on a bulk view, a
// refreshed view, a view rebuilt inline after appends (every base node
// keeps its ordinal, so only the era tells the old Nodes apart) and one
// rebuilt after commits out of ID order, and as -1 for overlay nodes,
// Nodes of the previous era, Nodes of another kind, every Node on a Txn,
// and Nodes of another store's view that happens to carry the same era.
func TestKindScanIndex(t *testing.T) {
	r := xrand.New(47)
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	var pop []ids.ID
	for step := int64(1); step <= 20; step++ {
		pop = nodeGraphCommit(t, s, r, pop,
			ids.Compose(ids.KindPerson, 10*step, 0), ids.Compose(ids.KindPost, 10*step, 0))
	}
	s.View(func(tx *Txn) {
		if res, _ := assertIndexes(t, "txn", tx); res != 0 {
			t.Fatalf("txn: %d positions resolved", res)
		}
	})
	bulk := s.CurrentView()
	if res, nb := assertIndexes(t, "bulk view", bulk); res != len(pop) || nb == 0 {
		t.Fatalf("bulk view: %d of %d positions resolved, %d neighbours mapped", res, len(pop), nb)
	}

	// Posts appended after the base: the overlay's nodes have no position.
	for step := int64(21); step <= 24; step++ {
		pop = nodeGraphCommit(t, s, r, pop, ids.Compose(ids.KindPost, 10*step, 0))
	}
	refreshed, ev := s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("after appends: %v", ev)
	}
	if res, nb := assertIndexes(t, "refreshed view", refreshed); res != len(pop)-4 || nb == 0 {
		t.Fatalf("refreshed view: %d of %d positions resolved, %d neighbours mapped", res, len(pop)-4, nb)
	}
	for _, id := range pop[len(pop)-4:] {
		if i := refreshed.ScanKind(ids.KindPost).Index(refreshed.Resolve(id)); i != -1 {
			t.Fatalf("refreshed view: overlay node %v at %d", id, i)
		}
	}

	// The newest posts have the largest IDs of the last kind, so the
	// rebuild keeps every ordinal: the old era's Nodes carry the very
	// ordinals the new scan resolves, and only their era sets them apart.
	s.SetViewCompactThreshold(1)
	pop = nodeGraphCommit(t, s, r, pop, ids.Compose(ids.KindPost, 250, 0))
	appended, ev := s.AcquireView()
	if ev != ViewRebuilt || appended.Era() == refreshed.Era() {
		t.Fatalf("after the trigger: %v, era %d -> %d", ev, refreshed.Era(), appended.Era())
	}
	if res, _ := assertIndexes(t, "rebuilt view", appended); res != len(pop) {
		t.Fatalf("rebuilt view: %d of %d positions resolved", res, len(pop))
	}
	same := 0
	for kind := ids.Kind(0); kind < ids.KindLimit; kind++ {
		old, cur := refreshed.ScanKind(kind), appended.ScanKind(kind)
		for i := range old.Len() {
			n := old.At(i)
			if n.ord >= 0 && cur.At(i).ord == n.ord {
				same++
			}
			if got := cur.Index(n); got != -1 {
				t.Fatalf("rebuilt view: a Node of the previous era (%v) at %d", n.ID(), got)
			}
		}
	}
	if same == 0 {
		t.Fatal("the rebuild kept no ordinal: the previous era's Nodes test nothing but their ordinals")
	}

	// Persons committed out of ID order: the rebuilt base reassigns the
	// ordinals after each, and the person list no longer runs in ID order.
	for step := int64(20); step >= 1; step-- {
		pop = nodeGraphCommit(t, s, r, pop, ids.Compose(ids.KindPerson, 10*step+5, 0))
	}
	shuffled, ev := s.AcquireView()
	if ev != ViewRebuilt {
		t.Fatalf("after out-of-order commits: %v", ev)
	}
	if res, nb := assertIndexes(t, "view rebuilt out of ID order", shuffled); res == 0 || res == len(pop) || nb == 0 {
		t.Fatalf("view rebuilt out of ID order: %d of %d positions resolved, %d neighbours mapped", res, len(pop), nb)
	}

	// Another store's views never share an era with this store's (eras are
	// process-wide), and its persons have other IDs. A Node that carries
	// bulk's era and one of its persons' ordinals but another store's
	// person's ID is rejected by that ID.
	other := New()
	var otherPop []ids.ID
	for step := int64(1); step <= 20; step++ {
		otherPop = nodeGraphCommit(t, other, r, otherPop, ids.Compose(ids.KindPerson, 10*step+7, 0))
	}
	ov := other.CurrentView()
	if ov.Era() == bulk.Era() {
		t.Fatalf("two stores' views share era %d", ov.Era())
	}
	persons, foreign := bulk.ScanKind(ids.KindPerson), ov.ScanKind(ids.KindPerson)
	for i := range foreign.Len() {
		n := foreign.At(i)
		forged := Node{id: n.id, ord: persons.At(i).ord, era: uint32(bulk.Era())}
		if got := persons.Index(n); got != -1 {
			t.Fatalf("bulk view: another store's person %v at %d", n.ID(), got)
		}
		if got := persons.Index(forged); got != -1 {
			t.Fatalf("bulk view: another store's person %v, carrying bulk's era and ordinal %d, at %d", n.ID(), forged.ord, got)
		}
	}
}

// TestNodeOfAnotherStore reads Nodes resolved on one store's views on
// another store's views, whose first views are built in step: each must
// read as its ID does there, never as the node the other store keeps at
// its ordinal.
func TestNodeOfAnotherStore(t *testing.T) {
	person := func(s *Store, seq uint32, first string) ids.ID {
		id := ids.Compose(ids.KindPerson, 0, seq)
		tx := s.Begin()
		if err := tx.CreateNode(id, Props{NewProp(PropFirstName, String(first))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b := New(), New()
	ada, bob := person(a, 1, "ada"), person(b, 2, "bob")
	va, vb := a.CurrentView(), b.CurrentView()
	for _, c := range []struct {
		name   string
		on     *SnapshotView
		n      Node
		exists bool
	}{
		{"bob's Node on a's view", va, vb.Resolve(bob), false},
		{"ada's Node on b's view", vb, va.Resolve(ada), false},
		{"ada's Node on a's view", va, va.Resolve(ada), true},
	} {
		byNode, byID := c.on.PropOf(c.n, PropFirstName), c.on.PropOf(ByID(c.n.ID()), PropFirstName)
		if byNode != byID || c.on.Exists(c.n.ID()) != c.exists || byNode.IsZero() == c.exists {
			t.Errorf("%s: PropOf %q, by ID %q, Exists %v; want equal reads and a node that exists: %v",
				c.name, byNode.Str(), byID.Str(), c.on.Exists(c.n.ID()), c.exists)
		}
	}
}

// TestIntoListsEveryEdgeIntoANode checks Into against its definition, the
// Out entries of every node that name n, on a graph whose knows edges are
// symmetric, directed, directed both ways with one stamp, and repeated: on
// a Txn, a fresh view, and a refreshed view whose later edges are the
// overlay's, from resolved and unresolved Nodes.
func TestIntoListsEveryEdgeIntoANode(t *testing.T) {
	r := xrand.New(11)
	s := New()
	s.SetViewCompactThreshold(1 << 30)
	var pop []ids.ID
	knows := func(tx *Txn, a, b ids.ID, stamp int64, sym bool) {
		if sym {
			_ = tx.AddKnows(a, b, stamp)
		} else {
			_ = tx.AddEdge(a, EdgeKnows, b, stamp)
		}
	}
	shapes := func() {
		tx := s.Begin()
		for i := 0; i < 6; i++ {
			a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
			stamp := int64(r.Intn(3))
			switch i % 3 {
			case 0: // directed, sometimes twice
				knows(tx, a, b, stamp, false)
				if r.Intn(2) == 0 {
					knows(tx, a, b, stamp, false)
				}
			case 1: // directed both ways with one stamp, beside a symmetric edge
				knows(tx, a, b, stamp, false)
				knows(tx, b, a, stamp, false)
				knows(tx, a, b, stamp, true)
			default: // symmetric twice
				knows(tx, a, b, stamp, true)
				knows(tx, a, b, stamp, true)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var views []*SnapshotView
	for step := int64(1); step <= 16; step++ {
		pop = nodeGraphCommit(t, s, r, pop, ids.Compose(ids.KindPerson, step, 0), ids.Compose(ids.KindPost, step, 0))
		shapes()
		if step == 8 || step == 16 {
			views = append(views, s.CurrentView())
		}
	}
	if views[1].Era() != views[0].Era() {
		t.Fatal("the second view is no refresh of the first")
	}
	check := func(name string, rd Reader) {
		for _, et := range []EdgeType{EdgeKnows, EdgeHasCreator} {
			for _, n := range pop {
				want := map[Edge]int{}
				for _, x := range pop {
					for _, e := range rd.OutOf(ByID(x), et) {
						if e.To == n {
							want[Edge{To: x, Stamp: e.Stamp}]++
						}
					}
				}
				for _, node := range []Node{rd.Resolve(n), ByID(n)} {
					got := map[Edge]int{}
					for _, e := range Into(rd, node, et, nil) {
						got[e]++
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: Into(%v, %v) = %v, want %v", name, n, et, got, want)
					}
				}
			}
		}
	}
	s.View(func(tx *Txn) { check("txn", tx) })
	check("fresh view", views[0])
	check("refreshed view", views[1])
}
