package query

import (
	"fmt"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// A forward BFS in bind mode followed by ?f.prop = value may read its last
// layer from the candidates (bfsFromCandidates). These tests force each
// side, and let the executor choose, and require the reference
// evaluator's rows every time.

// lastHopCorpus holds the queries whose BFS has such a filter.
var lastHopCorpus = []string{
	`match $person -knows*1..2-> ?f where ?f.firstName = $name return ?f`,
	`match $person -knows*2..2-> ?f @ ?dist where ?f.firstName = $name return ?f, ?dist`,
	`match $person -knows*2..3-> ?f @ ?dist where ?f.firstName = $name return ?f, ?dist`,
	`match $person -knows*3..3-> ?f where $name = ?f.firstName return ?f, ?f.lastName`,
	`match $person -knows*1..3-> ?f @ ?dist where ?f.firstName = $name return ?f, ?dist, ?f.lastName order by ?dist asc, ?f.lastName asc, ?f asc limit 20`,
	`match $person -knows*1..2-> ?f, ?f : Forum where ?f.firstName = $name return ?f`,
}

func mustParse(t *testing.T, text string) *Query {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// lastHopRuns counts the executions that read a last layer from the
// candidates, and those that could have and read it forward.
type lastHopRuns struct{ candidates, forward int }

// checkLastHop runs text on r under every side against want.
func checkLastHop(t *testing.T, r store.Reader, name, text string, params Params, want [][]store.Value, runs *lastHopRuns) {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []hopSide{hopForward, hopCandidates, hopChoose} {
		sc := NewScratch()
		sc.lastHop = side
		var res *Result
		switch rd := r.(type) {
		case *store.SnapshotView:
			res, err = runView(rd, sc, p, params)
		case *store.Txn:
			res, err = runTxn(rd, sc, p, params)
		}
		if err != nil {
			t.Fatalf("%s, side %d, %q: %v", name, side, text, err)
		}
		if !rowsEqual(want, res.Rows) {
			t.Fatalf("%s, side %d, %q %v:\n ref %s\n got %s", name, side, text, params, fmtRows(want), fmtRows(res.Rows))
		}
		if _, view := r.(*store.SnapshotView); view && side == hopChoose {
			if sc.fromCandidates > 0 {
				runs.candidates++
			} else {
				runs.forward++
			}
		}
		if _, view := r.(*store.SnapshotView); view && side == hopCandidates && sc.fromCandidates == 0 {
			t.Fatalf("%s: %q read no last layer from the candidates when forced to", name, text)
		}
	}
}

// TestBFSLastHopSidesSNB runs lastHopCorpus on the SNB dataset for a spread
// of start persons and names, on a view and on a txn.
func TestBFSLastHopSidesSNB(t *testing.T) {
	st, ds := snbEnv(t)
	v := st.CurrentView()
	var runs lastHopRuns
	for i, p := range samplePersons(ds, 8) {
		params := Params{
			"person": store.Int64(int64(uint64(p.ID))),
			"name":   store.String(ds.Persons[(i*37)%len(ds.Persons)].FirstName),
		}
		for _, text := range lastHopCorpus {
			var want [][]store.Value
			st.View(func(tx *store.Txn) {
				want = refEval(t, tx, mustParse(t, text), params)
				checkLastHop(t, tx, "txn", text, params, want, &runs)
			})
			checkLastHop(t, v, "view", text, params, want, &runs)
		}
	}
	if runs.candidates == 0 || runs.forward == 0 {
		t.Errorf("runs that chose the candidates %d, forward %d; want both", runs.candidates, runs.forward)
	}
}

// addLastHopShapes commits the shapes where the sides could part: a forum
// carrying a firstName with knows edges to persons (only the view's key set
// makes it a candidate), directed knows edges, one pair of them both ways
// with one stamp, and an isolated person.
func addLastHopShapes(t *testing.T, st *store.Store, rnd *xrand.Rand, g *randGraph, step int) {
	t.Helper()
	tx := st.Begin()
	now := int64(step*1000 + 900)
	person := func() ids.ID { return g.persons[rnd.Intn(len(g.persons))] }
	f := ids.Compose(ids.KindForum, int64(step), 9)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tx.CreateNode(f, store.Props{
		store.NewProp(store.PropFirstName, store.String(randNames[0])),
		store.NewProp(store.PropLastName, store.String("Forum")),
	}))
	must(tx.AddKnows(f, person(), now))
	must(tx.AddKnows(person(), f, now+1))
	must(tx.AddEdge(person(), store.EdgeKnows, person(), now+2))
	a, b := person(), person()
	must(tx.AddEdge(a, store.EdgeKnows, b, now+3))
	must(tx.AddEdge(b, store.EdgeKnows, a, now+3))
	p := ids.Compose(ids.KindPerson, int64(step), 9)
	must(tx.CreateNode(p, store.Props{store.NewProp(store.PropFirstName, store.String(randNames[0]))}))
	must(tx.Commit())
	g.persons = append(g.persons, p)
}

// TestBFSLastHopSidesRandomGraphs runs lastHopCorpus on random graphs with
// addLastHopShapes, on a fresh view, a delta-refreshed view holding nodes
// created after its base, its recompaction and a txn, for every person and
// name. A forum must be among the rows: only the key set finds it.
func TestBFSLastHopSidesRandomGraphs(t *testing.T) {
	var runs lastHopRuns
	forums := 0
	for seed := uint64(1); seed <= 2; seed++ {
		st := store.New()
		st.SetViewCompactThreshold(1 << 30)
		rnd := xrand.New(seed, 3)
		g := &randGraph{}
		seedRandDims(t, st, g)
		var base *store.SnapshotView
		for step := 0; step < 10; step++ {
			randStep(t, st, rnd, g, step)
			if step == 3 {
				base = st.CurrentView()
			}
			if step%3 == 1 && base != nil {
				addLastHopShapes(t, st, rnd, g, step) // after the base: a refresh ORs in the forums' keys
			}
		}
		v := st.CurrentView()
		if v.Era() != base.Era() || v.NumOfKind(ids.KindForum) <= base.NumOfKind(ids.KindForum) {
			t.Fatalf("seed %d: the last view is no refresh of the base holding later nodes", seed)
		}
		views := []struct {
			name string
			v    *store.SnapshotView
		}{{"refreshed view", v}, {"recompacted view", st.ViewAt(v.Timestamp())}, {"fresh base", base}}
		for _, p := range g.persons {
			for _, name := range randNames {
				params := Params{"person": store.Int64(int64(uint64(p))), "name": store.String(name)}
				for _, text := range lastHopCorpus {
					var want, wantBase [][]store.Value
					st.View(func(tx *store.Txn) {
						want = refEval(t, tx, mustParse(t, text), params)
						checkLastHop(t, tx, "txn", text, params, want, &runs)
					})
					wantBase = refEval(t, base, mustParse(t, text), params)
					for _, w := range views {
						exp := want
						if w.v == base {
							exp = wantBase
						}
						checkLastHop(t, w.v, fmt.Sprintf("seed %d %s", seed, w.name), text, params, exp, &runs)
					}
					for _, row := range want {
						if ids.ID(uint64(row[0].Int())).Kind() == ids.KindForum {
							forums++
						}
					}
				}
			}
		}
	}
	if forums == 0 {
		t.Error("no row holds a forum: the key set is untested")
	}
	if runs.candidates == 0 || runs.forward == 0 {
		t.Errorf("runs that chose the candidates %d, forward %d; want both", runs.candidates, runs.forward)
	}
}
