package store

import (
	"context"
	"errors"
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

// assertNodeMatchesID requires every Node read of n on r to equal its
// ID-keyed twin.
func assertNodeMatchesID(t *testing.T, name string, r Reader, n Node) {
	t.Helper()
	id := n.ID()
	for _, et := range viewEdgeTypes {
		if got, want := r.OutOf(n, et), r.Out(id, et); !edgesEqual(got, want) {
			t.Fatalf("%s: OutOf(%v, %v) = %v, Out = %v", name, id, et, got, want)
		}
		if got, want := r.InOf(n, et), r.In(id, et); !edgesEqual(got, want) {
			t.Fatalf("%s: InOf(%v, %v) = %v, In = %v", name, id, et, got, want)
		}
		if got, want := r.OutDegreeOf(n, et), r.OutDegree(id, et); got != want {
			t.Fatalf("%s: OutDegreeOf(%v, %v) = %d, OutDegree = %d", name, id, et, got, want)
		}
		if got, want := r.InDegreeOf(n, et), r.InDegree(id, et); got != want {
			t.Fatalf("%s: InDegreeOf(%v, %v) = %d, InDegree = %d", name, id, et, got, want)
		}
	}
	for _, key := range []PropKey{PropFirstName, PropCreationDate} {
		if got, want := r.PropOf(n, key), r.Prop(id, key); got != want {
			t.Fatalf("%s: PropOf(%v, %v) = %#v, Prop = %#v", name, id, key, got, want)
		}
	}
}

// assertScanMatchesID walks every kind's scan on r: element i must be
// NodesOfKind(kind)[i], and every read of it must equal its ID-keyed twin.
// A Node resolved on r from a probe ID (one never created among them) must
// too. It returns how many scanned nodes came out resolved to an ordinal.
func assertScanMatchesID(t *testing.T, name string, r Reader, probes []ids.ID) (resolved int) {
	t.Helper()
	for kind := ids.Kind(0); kind < ids.KindLimit; kind++ {
		list, scan := r.NodesOfKind(kind), r.ScanKind(kind)
		if scan.Len() != len(list) || len(scan.IDs()) != len(list) {
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

// TestNodeReadsMatchIDReads pins the Node contract (Reader, "Nodes") on
// every reader a Node meets: a Txn, a fresh view, a refreshed view with
// appended nodes, the view an inline rebuild makes after commits out of ID
// order (where scan positions no longer match ordinals), a WithCancel view,
// and views handed Nodes resolved on another view — of the same era with
// more nodes, and of an older era whose ordinals the rebuild reassigned.
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
	never := ids.Compose(ids.KindPerson, 1<<30, 0)
	probes := append([]ids.ID{never}, pop...)

	s.View(func(tx *Txn) {
		if got := assertScanMatchesID(t, "txn", tx, probes); got != 0 {
			t.Fatalf("txn: %d scanned nodes carry an ordinal", got)
		}
	})

	fresh, ev := s.AcquireView()
	if ev != ViewRebuilt {
		t.Fatalf("first view: %v", ev)
	}
	if got := assertScanMatchesID(t, "fresh view", fresh, probes); got != len(pop) {
		t.Fatalf("fresh view: %d of %d scanned nodes resolved by position", got, len(pop))
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

	// A WithCancel view reads Nodes like its parent, and its Node reads
	// still poll the request's context.
	ctx, cancel := context.WithCancel(context.Background())
	cv := rebuilt.WithCancel(ctx)
	assertScanMatchesID(t, "cancellable view", cv, probes)
	cancel()
	n := cv.ScanKind(ids.KindPerson).At(0)
	for name, read := range map[string]func(){
		"OutOf":  func() { cv.OutOf(n, EdgeKnows) },
		"InOf":   func() { cv.InOf(n, EdgeKnows) },
		"PropOf": func() { cv.PropOf(n, PropFirstName) },
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
