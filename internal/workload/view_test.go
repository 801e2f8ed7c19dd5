package workload

import (
	"reflect"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// The Txn-vs-view equivalence property tests: every query has exactly one
// implementation, so these tests pin that the two Reader instantiations
// (*store.Txn and *store.SnapshotView) return identical results at the same
// snapshot timestamp — for all of Q1-Q14 (including the Q9Join plans),
// S1-S7 and the short-read chain.

// findCoTag returns a tag that appears on some tagged post (zero if none),
// giving Q6 a parameter with hits on both generated and random graphs.
func findCoTag(tx *store.Txn) ids.ID {
	for _, m := range tx.ScanKind(ids.KindPost).IDs() {
		if tags := tx.Out(m, store.EdgeHasTag); len(tags) > 0 {
			return tags[0].To
		}
	}
	return 0
}

// assertQueriesAgree compares every query's view instantiation against its
// Txn instantiation at the same snapshot timestamp, for a sample of start
// persons and messages. The most expensive queries (Q9Join's hash plans,
// Q13, Q14) run on a prefix of the persons to bound test time.
func assertQueriesAgree(t *testing.T, st *store.Store, persons, messages []ids.ID, maxDate int64) {
	t.Helper()
	v := st.CurrentView()
	scV, scT := NewScratch(), NewScratch()
	const heavyCap = 8
	st.View(func(tx *store.Txn) {
		if v.Timestamp() != tx.Snapshot() {
			t.Fatalf("snapshots diverge: view %d txn %d", v.Timestamp(), tx.Snapshot())
		}
		tag := findCoTag(tx)
		rootClass := ids.DimensionID(ids.KindTagClass, 0)
		for i, p := range persons {
			// Traversal helpers (results alias the scratch: copy the view
			// side before running the txn side).
			scV.begin()
			scT.begin()
			gotF := append([]ids.ID(nil), friendsOf(v, scV, p)...)
			if want := friendsOf(tx, scT, p); !idsEqual(gotF, want) {
				t.Fatalf("friendsOf(%v): view %v txn %v", p, gotF, want)
			}
			gotE := append([]ids.ID(nil), TwoHopEnv(v, scV, p)...)
			if want := TwoHopEnv(tx, scT, p); !idsEqual(gotE, want) {
				t.Fatalf("friendsAndFoF(%v): view %v txn %v", p, gotE, want)
			}

			if got, want := Q1(v, scV, p, "Karl"), Q1(tx, scT, p, "Karl"); !rowsEqual(t, got, want) {
				t.Fatalf("Q1(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q2(v, scV, p, maxDate), Q2(tx, scT, p, maxDate); !rowsEqual(t, got, want) {
				t.Fatalf("Q2(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q3(v, scV, p, 0, 1, 0, maxDate), Q3(tx, scT, p, 0, 1, 0, maxDate); !rowsEqual(t, got, want) {
				t.Fatalf("Q3(%v): view %+v txn %+v", p, got, want)
			}
			half := maxDate / 2
			if got, want := Q4(v, scV, p, half, maxDate-half), Q4(tx, scT, p, half, maxDate-half); !rowsEqual(t, got, want) {
				t.Fatalf("Q4(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q5(v, scV, p, 0), Q5(tx, scT, p, 0); !rowsEqual(t, got, want) {
				t.Fatalf("Q5(%v): view %+v txn %+v", p, got, want)
			}
			if tag != 0 {
				if got, want := Q6(v, scV, p, tag), Q6(tx, scT, p, tag); !rowsEqual(t, got, want) {
					t.Fatalf("Q6(%v): view %+v txn %+v", p, got, want)
				}
			}
			if got, want := Q7(v, scV, p), Q7(tx, scT, p); !rowsEqual(t, got, want) {
				t.Fatalf("Q7(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q8(v, scV, p), Q8(tx, scT, p); !rowsEqual(t, got, want) {
				t.Fatalf("Q8(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q9(v, scV, p, maxDate), Q9(tx, scT, p, maxDate); !rowsEqual(t, got, want) {
				t.Fatalf("Q9(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q10(v, scV, p, i%12), Q10(tx, scT, p, i%12); !rowsEqual(t, got, want) {
				t.Fatalf("Q10(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q11(v, scV, p, i%4, 2013), Q11(tx, scT, p, i%4, 2013); !rowsEqual(t, got, want) {
				t.Fatalf("Q11(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := Q12(v, scV, p, rootClass), Q12(tx, scT, p, rootClass); !rowsEqual(t, got, want) {
				t.Fatalf("Q12(%v): view %+v txn %+v", p, got, want)
			}

			if i < heavyCap {
				for _, plan := range []Q9Plan{
					{JoinINL, JoinINL},
					{JoinHash, JoinINL},
					{JoinINL, JoinHash},
					{JoinHash, JoinHash},
				} {
					got, want := Q9Join(v, scV, p, maxDate, plan), Q9Join(tx, scT, p, maxDate, plan)
					if !rowsEqual(t, got, want) {
						t.Fatalf("Q9Join(%v, %+v): view %+v txn %+v", p, plan, got, want)
					}
				}
				other := persons[(i+1)%len(persons)]
				if got, want := Q13(v, scV, p, other), Q13(tx, scT, p, other); got != want {
					t.Fatalf("Q13(%v,%v): view %d txn %d", p, other, got, want)
				}
				if got, want := Q14(v, scV, p, other), Q14(tx, scT, p, other); !rowsEqual(t, got, want) {
					t.Fatalf("Q14(%v,%v): view %+v txn %+v", p, other, got, want)
				}
			}

			gotS1, gotOK := S1(v, p)
			wantS1, wantOK := S1(tx, p)
			if gotOK != wantOK || gotS1 != wantS1 {
				t.Fatalf("S1(%v): view %+v/%v txn %+v/%v", p, gotS1, gotOK, wantS1, wantOK)
			}
			if got, want := S2(v, p), S2(tx, p); !rowsEqual(t, got, want) {
				t.Fatalf("S2(%v): view %+v txn %+v", p, got, want)
			}
			if got, want := S3(v, p), S3(tx, p); !rowsEqual(t, got, want) {
				t.Fatalf("S3(%v): view %+v txn %+v", p, got, want)
			}
		}
		for _, m := range messages {
			gotS4, gotOK := S4(v, m)
			wantS4, wantOK := S4(tx, m)
			if gotOK != wantOK || gotS4 != wantS4 {
				t.Fatalf("S4(%v) diverges", m)
			}
			gotS5, gotOK5 := S5(v, m)
			wantS5, wantOK5 := S5(tx, m)
			if gotOK5 != wantOK5 || gotS5 != wantS5 {
				t.Fatalf("S5(%v) diverges", m)
			}
			gotS6, gotOK6 := S6(v, m)
			wantS6, wantOK6 := S6(tx, m)
			if gotOK6 != wantOK6 || gotS6 != wantS6 {
				t.Fatalf("S6(%v) diverges", m)
			}
			if got, want := S7(v, m), S7(tx, m); !rowsEqual(t, got, want) {
				t.Fatalf("S7(%v): view %+v txn %+v", m, got, want)
			}
		}
		// Short-read chain: identical seed streams must take identical
		// walks on the two paths (every step's result feeds the next
		// step's input pool, so diverging results would diverge the
		// stats). Fresh seed copies per run — the chain appends to them.
		rT := xrand.New(123, xrand.PurposeShortRead, 9)
		rV := xrand.New(123, xrand.PurposeShortRead, 9)
		statsT := RunShortReadChain(tx, DefaultShortReadMix, rT,
			append([]ids.ID(nil), persons...), append([]ids.ID(nil), messages...), nil)
		statsV := RunShortReadChain(v, DefaultShortReadMix, rV,
			append([]ids.ID(nil), persons...), append([]ids.ID(nil), messages...), nil)
		if statsT != statsV {
			t.Fatalf("short-read chain diverges: view %v txn %v", statsV, statsT)
		}
	})
}

func idsEqual(a, b []ids.ID) bool {
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

// rowsEqual compares result slices, treating nil and empty as equal (the
// top-k path returns empty slices where a full-sort path returns nil).
func rowsEqual[T any](t *testing.T, a, b []T) bool {
	t.Helper()
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// sampleEntities picks start persons (including high-degree ones) and
// messages for the equivalence sweep.
func sampleEntities(t *testing.T, st *store.Store) (persons, messages []ids.ID) {
	t.Helper()
	st.View(func(tx *store.Txn) {
		all := tx.ScanKind(ids.KindPerson).IDs()
		for i, p := range all {
			if i%17 == 0 || tx.OutDegreeOf(store.ByID(p), store.EdgeKnows) >= 8 {
				persons = append(persons, p)
			}
			if len(persons) >= 25 {
				break
			}
		}
		for i, m := range tx.ScanKind(ids.KindPost).IDs() {
			if i%29 == 0 {
				messages = append(messages, m)
			}
			if len(messages) >= 15 {
				break
			}
		}
		for i, m := range tx.ScanKind(ids.KindComment).IDs() {
			if i%31 == 0 {
				messages = append(messages, m)
			}
			if len(messages) >= 25 {
				break
			}
		}
	})
	return persons, messages
}

// TestViewQueriesMatchTxnQueries is the workload half of the equivalence
// property test: on the generated SNB graph, every query must return
// identical results from the view and Txn instantiations of its single
// implementation.
func TestViewQueriesMatchTxnQueries(t *testing.T) {
	st, _ := setup(t)
	persons, messages := sampleEntities(t, st)
	if len(persons) == 0 {
		t.Fatal("no sample persons")
	}
	assertQueriesAgree(t, st, persons, messages, datagen.UpdateCut)
}

// TestViewQueriesMatchUnderInterleavedUpdates replays the update stream in
// chunks against a bulk-loaded store and re-checks query equivalence after
// every chunk — the view must track each new epoch exactly.
func TestViewQueriesMatchUnderInterleavedUpdates(t *testing.T) {
	_, d := setup(t)
	bulk, updates := datagen.Split(d, datagen.UpdateCut)
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.Load(st, bulk); err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Skip("no updates at this scale")
	}
	persons, messages := sampleEntities(t, st)
	chunks := 5
	per := (len(updates) + chunks - 1) / chunks
	for start := 0; start < len(updates); start += per {
		end := start + per
		if end > len(updates) {
			end = len(updates)
		}
		for i := start; i < end; i++ {
			if err := ApplyUpdate(st, &updates[i]); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
		assertQueriesAgree(t, st, persons, messages, datagen.SimEnd)
	}
}
