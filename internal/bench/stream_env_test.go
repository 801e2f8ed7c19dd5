package bench

import (
	"reflect"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// TestStreamedEnvMatchesNewEnv pins the NewEnvStreamed contract: for the
// same (persons, seed) the streamed pipeline produces the same update
// stream and the same logical store content as the materialise-everything
// path — same per-kind node lists (order included), same properties, same
// adjacency with stamps — at the same commit clock: both load the bulk
// split as one commit.
func TestStreamedEnvMatchesNewEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and loads the dataset twice")
	}
	const persons, seed = 150, 9
	ref, err := NewEnv(persons, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEnvStreamed(persons, seed)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Updates) != len(ref.Updates) {
		t.Fatalf("update counts diverge: streamed %d, reference %d", len(got.Updates), len(ref.Updates))
	}
	for i := range got.Updates {
		if !reflect.DeepEqual(got.Updates[i], ref.Updates[i]) {
			t.Fatalf("update %d diverges:\nstreamed  %+v\nreference %+v", i, got.Updates[i], ref.Updates[i])
		}
	}

	if rc, gc := ref.Store.LastCommit(), got.Store.LastCommit(); rc != gc {
		t.Fatalf("commit clocks diverge: streamed %d, reference %d", gc, rc)
	}
	rv, gv := ref.Store.CurrentView(), got.Store.CurrentView()
	if rn, gn := rv.NumNodes(), gv.NumNodes(); rn != gn {
		t.Fatalf("node counts diverge: streamed %d, reference %d", gn, rn)
	}
	edgeTypes := []store.EdgeType{
		store.EdgeKnows, store.EdgeHasCreator, store.EdgeContainerOf,
		store.EdgeReplyOf, store.EdgeLikes, store.EdgeHasMember,
		store.EdgeHasModerator, store.EdgeHasTag, store.EdgeHasInterest,
		store.EdgeIsLocatedIn, store.EdgeStudyAt, store.EdgeWorkAt,
	}
	var rbuf, gbuf []store.Edge
	for _, k := range []ids.Kind{ids.KindPerson, ids.KindForum, ids.KindPost, ids.KindComment} {
		rk, gk := rv.ScanKind(k).IDs(), gv.ScanKind(k).IDs()
		if !reflect.DeepEqual(rk, gk) {
			t.Fatalf("kind %v node lists diverge (order matters)", k)
		}
		for _, id := range rk {
			rp, _ := rv.PropsOf(store.ByID(id))
			gp, _ := gv.PropsOf(store.ByID(id))
			if !reflect.DeepEqual(rp, gp) {
				t.Fatalf("node %v props diverge", id)
			}
			for _, et := range edgeTypes {
				rbuf = append(rbuf[:0], rv.Out(id, et)...)
				gbuf = append(gbuf[:0], gv.Out(id, et)...)
				if !reflect.DeepEqual(rbuf, gbuf) {
					t.Fatalf("node %v out-%v adjacency diverges", id, et)
				}
			}
		}
	}
}
