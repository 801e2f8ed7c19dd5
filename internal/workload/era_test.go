package workload

import (
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Era-awareness regression tests for Scratch: ordinal bitsets survive cheap
// view refreshes (same era) and are hard-reset across era bumps (full
// recompactions reassign every ordinal).

// eraTestGraph commits a small knows clique and returns its persons.
func eraTestGraph(t *testing.T) (*store.Store, []ids.ID) {
	t.Helper()
	st := store.New()
	ps := make([]ids.ID, 4)
	tx := st.Begin()
	for i := range ps {
		ps[i] = ids.Compose(ids.KindPerson, 900, uint32(i))
		if err := tx.CreateNode(ps[i], store.Props{store.NewProp(store.PropFirstName, store.String("p"))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ps); i++ {
		_ = tx.AddKnows(ps[0], ps[i], int64(i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return st, ps
}

func TestScratchSurvivesRefresh(t *testing.T) {
	st, ps := eraTestGraph(t)
	v1 := st.CurrentView()
	sc := NewScratch()
	TwoHopEnv(v1, sc, ps[0])
	if sc.Era() != v1.Era() {
		t.Fatalf("scratch era %d, view era %d", sc.Era(), v1.Era())
	}
	pooled := len(sc.sets)

	// A sparse commit refreshes the cached view within the same era.
	tx := st.Begin()
	p := ids.Compose(ids.KindPerson, 901, 0)
	_ = tx.CreateNode(p, nil)
	_ = tx.AddKnows(ps[0], p, 99)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v2 := st.CurrentView()
	if v2.Era() != v1.Era() {
		t.Fatalf("sparse commit bumped the era: %d -> %d", v1.Era(), v2.Era())
	}
	env := TwoHopEnv(v2, sc, ps[0])
	if len(env) != len(ps) { // 3 old friends + the new one
		t.Fatalf("2-hop env on refreshed view: %d persons, want %d", len(env), len(ps))
	}
	if len(sc.sets) != pooled {
		t.Fatalf("refresh rebind reallocated the set pool: %d -> %d", pooled, len(sc.sets))
	}
	if sc.Era() != v2.Era() {
		t.Fatalf("scratch era diverged: %d vs %d", sc.Era(), v2.Era())
	}
}

func TestScratchResetsOnEraBump(t *testing.T) {
	st, ps := eraTestGraph(t)
	v1 := st.CurrentView()
	sc := NewScratch()
	TwoHopEnv(v1, sc, ps[0])

	// Dirty an extra pooled set the next query will not re-bind: if its
	// bits survived an era bump they would alias reassigned ordinals.
	extra := sc.newSeen()
	extra.tryMark(ps[0])
	if extra.bits.Count() == 0 {
		t.Fatal("setup: mark did not stick")
	}

	// Force a recompaction on the next advance.
	st.SetViewCompactThreshold(0)
	tx := st.Begin()
	_ = tx.CreateNode(ids.Compose(ids.KindPerson, 902, 0), nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v2 := st.CurrentView()
	if v2.Era() == v1.Era() {
		t.Fatal("forced recompaction kept the era")
	}

	TwoHopEnv(v2, sc, ps[0])
	if sc.Era() != v2.Era() {
		t.Fatalf("scratch era not advanced: %d vs %d", sc.Era(), v2.Era())
	}
	// Every pooled set — bound by this query or not — must have been
	// invalidated at the era boundary.
	for i, s := range sc.sets[sc.used:] {
		if s.v != nil || s.bits.Count() != 0 {
			t.Fatalf("pooled set %d kept stale ordinal state across the era bump", sc.used+i)
		}
	}
}
