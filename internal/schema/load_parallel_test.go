package schema_test

import (
	"reflect"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// LoadParallel promises a store byte-identical to a sequential Load for any
// worker count: commits are issued strictly in batch order, so the commit
// clock, kind-list order and adjacency insertion order cannot depend on
// scheduling. This test loads one generated dataset sequentially and with
// several worker counts and requires identical observable state — commit
// clock, per-kind node lists (order included), every node's property list
// and every adjacency list with stamps.

var loadEdgeTypes = []store.EdgeType{
	store.EdgeKnows, store.EdgeHasCreator, store.EdgeContainerOf,
	store.EdgeReplyOf, store.EdgeLikes, store.EdgeHasMember,
	store.EdgeHasModerator, store.EdgeHasTag, store.EdgeHasInterest,
	store.EdgeIsLocatedIn, store.EdgeStudyAt, store.EdgeWorkAt,
}

func loadWithWorkers(t *testing.T, d *schema.Dataset, workers int) *store.Store {
	t.Helper()
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.LoadParallel(st, d, workers); err != nil {
		t.Fatal(err)
	}
	return st
}

func assertSameLoadedStore(t *testing.T, want, got *store.Store, workers int) {
	t.Helper()
	if wc, gc := want.LastCommit(), got.LastCommit(); wc != gc {
		t.Fatalf("workers=%d: commit clock %d, sequential %d", workers, gc, wc)
	}
	wv, gv := want.CurrentView(), got.CurrentView()
	if wn, gn := wv.NumNodes(), gv.NumNodes(); wn != gn {
		t.Fatalf("workers=%d: %d nodes, sequential %d", workers, gn, wn)
	}
	var all []ids.ID
	for _, k := range []ids.Kind{ids.KindPerson, ids.KindForum, ids.KindPost, ids.KindComment} {
		wk, gk := wv.ScanKind(k).IDs(), gv.ScanKind(k).IDs()
		if !reflect.DeepEqual(wk, gk) {
			t.Fatalf("workers=%d: kind %v node list diverges (order matters)", workers, k)
		}
		all = append(all, wk...)
	}
	var wbuf, gbuf []store.Edge
	for _, id := range all {
		wp, _ := wv.PropsOf(store.ByID(id))
		gp, _ := gv.PropsOf(store.ByID(id))
		if !reflect.DeepEqual(wp, gp) {
			t.Fatalf("workers=%d: node %v props diverge", workers, id)
		}
		for _, et := range loadEdgeTypes {
			wbuf = append(wbuf[:0], wv.Out(id, et)...)
			gbuf = append(gbuf[:0], gv.Out(id, et)...)
			if !reflect.DeepEqual(wbuf, gbuf) {
				t.Fatalf("workers=%d: node %v out-%v adjacency diverges", workers, id, et)
			}
			wbuf = append(wbuf[:0], wv.InOf(store.ByID(id), et)...)
			gbuf = append(gbuf[:0], gv.InOf(store.ByID(id), et)...)
			if !reflect.DeepEqual(wbuf, gbuf) {
				t.Fatalf("workers=%d: node %v in-%v adjacency diverges", workers, id, et)
			}
		}
	}
}

func TestLoadParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and loads a dataset four times")
	}
	out := datagen.Generate(datagen.Config{Seed: 5, Persons: 200, Events: true})
	seq := loadWithWorkers(t, out.Data, 1)
	for _, workers := range []int{2, 4, 8} {
		par := loadWithWorkers(t, out.Data, workers)
		assertSameLoadedStore(t, seq, par, workers)
	}
}
