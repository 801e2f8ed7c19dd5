package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// Q6 chooses its side per binding. These tests force each side on every
// binding and require identical rows: on the path fixture, and on random
// graphs with the shapes where the two sides could count differently.

// q6BothSides runs Q6 for one binding down the environment side and down
// the tag side.
func q6BothSides(r store.Reader, sc *Scratch, start, tag ids.ID) (fromEnv, fromTag []Q6Row) {
	sc.begin()
	env, inEnv := friendsAndFoF(r, sc, start)
	return q6(r, sc, env, inEnv, start, tag, false), q6(r, sc, env, inEnv, start, tag, true)
}

// q6PicksTagSide reports the side Q6 plans for one binding.
func q6PicksTagSide(r store.Reader, sc *Scratch, start, tag ids.ID) bool {
	sc.begin()
	env, _ := friendsAndFoF(r, sc, start)
	return q6TagSideCheaper(r, env, tag)
}

// TestQ6SidesAgreeOnFixture forces each side on the txn path, a fresh view
// and a delta-refreshed view: over printQ6Sides' bindings each side must
// print the rows recorded in wantQ6SidesDigest, and on every pool person
// with every eighth tag the two sides must return the same rows.
func TestQ6SidesAgreeOnFixture(t *testing.T) {
	f := pathSetup(t)
	sc := NewScratch()
	check := func(name string, r store.Reader) {
		for i, side := range []string{"environment side", "tag side"} {
			h := sha256.New()
			printQ6Sides(f, h, func(p, tag ids.ID) []Q6Row {
				sc.begin()
				env, inEnv := friendsAndFoF(r, sc, p)
				return q6(r, sc, env, inEnv, p, tag, i == 1)
			})
			if got := hex.EncodeToString(h.Sum(nil)); got != wantQ6SidesDigest {
				t.Errorf("%s, %s: digest %s, want %s", name, side, got, wantQ6SidesDigest)
			}
		}
		for _, p := range f.pool {
			for tg := 0; tg < len(dict.Tags); tg += 8 {
				tag := schema.TagNodeID(tg)
				if fromEnv, fromTag := q6BothSides(r, sc, p, tag); !rowsEqual(t, fromEnv, fromTag) {
					t.Fatalf("%s: Q6(%v, %v): environment side %+v, tag side %+v", name, p, tag, fromEnv, fromTag)
				}
			}
		}
	}
	f.fresh.View(func(tx *store.Txn) { check("txn", tx) })
	check("fresh view", f.fresh.CurrentView())
	check("refreshed view", f.refreshed.CurrentView())
}

// addQ6Shapes commits the shapes where Q6's sides could part: a post with
// two creators, a post whose hasCreator edge is doubled, posts with a
// doubled hasTag edge, and a tagged forum. Creators are drawn from all
// persons, so some are the start person of a binding.
func addQ6Shapes(t *testing.T, st *store.Store, r *xrand.Rand, g *randGraph, step int) {
	t.Helper()
	tx := st.Begin()
	now := int64(step)*100000 + 90
	person := func() ids.ID { return g.persons[r.Intn(len(g.persons))] }
	tag := func() ids.ID { return g.tags[r.Intn(len(g.tags))] }
	for i, creators := range [][]ids.ID{{person(), person()}, nil} {
		post := ids.Compose(ids.KindPost, int64(step), uint32(10+i))
		if err := tx.CreateNode(post, store.Props{store.NewProp(store.PropCreationDate, store.Int64(now))}); err != nil {
			t.Fatal(err)
		}
		if creators == nil {
			p := person()
			creators = []ids.ID{p, p}
		}
		for _, c := range creators {
			_ = tx.AddEdge(post, store.EdgeHasCreator, c, now)
		}
		doubled := tag()
		for _, tg := range []ids.ID{doubled, tag(), doubled, tag()} {
			_ = tx.AddEdge(post, store.EdgeHasTag, tg, 0)
		}
		g.messages = append(g.messages, post)
	}
	if len(g.forums) > 0 {
		_ = tx.AddEdge(g.forums[r.Intn(len(g.forums))], store.EdgeHasTag, tag(), 0)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestQ6SidesAgreeOnRandomGraphs grows random graphs with addQ6Shapes on
// top of randomWorkloadStep (which also tags comments and repeats tags at
// random) and forces both sides of every (person, tag) binding after every
// step, on the txn path and the view, which must also agree. Q6 must plan
// each side for some binding that has rows, or that side is dead code.
func TestQ6SidesAgreeOnRandomGraphs(t *testing.T) {
	var planned [2]int // bindings with rows planned down the environment side, the tag side
	for seed := uint64(1); seed <= 3; seed++ {
		r := xrand.New(seed, 6)
		st := store.New()
		g := &randGraph{}
		loadRandomDimensions(t, st, r, g)
		for step := 1; step <= 8; step++ {
			randomWorkloadStep(t, st, r, g, step)
			addQ6Shapes(t, st, r, g, step)
			v := st.CurrentView()
			scV, scT := NewScratch(), NewScratch()
			st.View(func(tx *store.Txn) {
				for _, p := range g.persons {
					for _, tag := range g.tags {
						if len(Q6(v, scV, p, tag)) > 0 {
							if q6PicksTagSide(v, scV, p, tag) {
								planned[1]++
							} else {
								planned[0]++
							}
						}
						envV, tagV := q6BothSides(v, scV, p, tag)
						envT, tagT := q6BothSides(tx, scT, p, tag)
						if !rowsEqual(t, envV, tagV) || !rowsEqual(t, envT, tagT) || !rowsEqual(t, envV, envT) {
							t.Fatalf("seed %d step %d Q6(%v, %v): view env %+v tag %+v, txn env %+v tag %+v",
								seed, step, p, tag, envV, tagV, envT, tagT)
						}
					}
				}
			})
		}
	}
	if planned[0] == 0 || planned[1] == 0 {
		t.Errorf("bindings with rows planned down the environment side %d, the tag side %d; want both", planned[0], planned[1])
	}
}

// Q1 chooses its side per binding too: forward, expanding the ball's
// depth-2 layer, or from the namesakes. These tests force each side and
// require identical rows on the path fixture and on random graphs with
// directed and doubled knows edges and persons created after the base.

// q1BothSides runs Q1 for one binding forward and from the namesakes. The
// forward side marks the last layer in the ball's visited set, so the
// namesakes' side runs first.
func q1BothSides(r store.Reader, sc *Scratch, start ids.ID, name string) (forward, fromNamesakes []Q1Row) {
	sc.begin()
	b := q1Walk(r, sc, start)
	persons := r.ScanKind(ids.KindPerson)
	fromNamesakes = q1(r, sc, b, persons, name, true)
	return q1(r, sc, b, persons, name, false), fromNamesakes
}

// q1PicksNamesakes reports the side Q1 plans for one start person.
func q1PicksNamesakes(r store.Reader, sc *Scratch, start ids.ID) bool {
	sc.begin()
	b := q1Walk(r, sc, start)
	return q1NamesakesCheaper(r, b.layer(sc, 2), r.ScanKind(ids.KindPerson).Len())
}

// TestQ1SidesAgreeOnFixture forces each side on the txn path, a fresh
// view, a delta-refreshed view and its recompaction: over printQ1's
// bindings each side must print the rows recorded in wantQ1Digest. The
// bindings must plan down both sides.
func TestQ1SidesAgreeOnFixture(t *testing.T) {
	f := pathSetup(t)
	sc := NewScratch()
	refreshed := f.refreshed.CurrentView()
	var planned [2]int // start persons planned forward, from the namesakes
	check := func(name string, r store.Reader) {
		for i, side := range []string{"forward", "from the namesakes"} {
			h := sha256.New()
			printQ1(f, h, func(p ids.ID, first string) []Q1Row {
				fwd, nsk := q1BothSides(r, sc, p, first)
				return [][]Q1Row{fwd, nsk}[i]
			})
			if got := hex.EncodeToString(h.Sum(nil)); got != wantQ1Digest {
				t.Errorf("%s, %s: digest %s, want %s", name, side, got, wantQ1Digest)
			}
		}
		for _, p := range append(slices.Clip(f.pool), f.isolated) {
			if q1PicksNamesakes(r, sc, p) {
				planned[1]++
			} else {
				planned[0]++
			}
		}
	}
	f.fresh.View(func(tx *store.Txn) { check("txn", tx) })
	check("fresh view", f.fresh.CurrentView())
	check("refreshed view", refreshed)
	check("recompacted view", f.refreshed.ViewAt(refreshed.Timestamp()))
	if planned[0] == 0 || planned[1] == 0 {
		t.Errorf("start persons planned forward %d, from the namesakes %d; want both", planned[0], planned[1])
	}
}

// addQ1Shapes commits the knows shapes where Q1's sides could part: a
// directed knows edge, a pair of directed edges both ways with one stamp,
// a doubled symmetric edge, and a new person with a common first name and
// no edge yet.
func addQ1Shapes(t *testing.T, st *store.Store, r *xrand.Rand, g *randGraph, step int) {
	t.Helper()
	tx := st.Begin()
	now := int64(step)*100000 + 95
	person := func() ids.ID { return g.persons[r.Intn(len(g.persons))] }
	a, b, c, d := person(), person(), person(), person()
	if err := tx.AddEdge(a, store.EdgeKnows, b, now); err != nil {
		t.Fatal(err)
	}
	_ = tx.AddEdge(c, store.EdgeKnows, d, now+1)
	_ = tx.AddEdge(d, store.EdgeKnows, c, now+1)
	x, y := person(), person()
	_ = tx.AddKnows(x, y, now+2)
	_ = tx.AddKnows(x, y, now+2)
	p := ids.Compose(ids.KindPerson, int64(step), 90)
	if err := tx.CreateNode(p, store.Props{
		store.NewProp(store.PropFirstName, store.String(randFirstNames[0])),
		store.NewProp(store.PropLastName, store.String("Lonely")),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	g.persons = append(g.persons, p)
}

// TestQ1SidesAgreeOnRandomGraphs checks both sides against each other on
// every person and first name, on the txn path, a delta-refreshed view
// holding the persons created after its base and its recompaction. Between
// them the rows must hold namesakes at every distance.
func TestQ1SidesAgreeOnRandomGraphs(t *testing.T) {
	var dists [4]int
	for seed := uint64(1); seed <= 3; seed++ {
		r := xrand.New(seed, 7)
		st := store.New()
		st.SetViewCompactThreshold(1 << 30)
		g := &randGraph{}
		loadRandomDimensions(t, st, r, g)
		var base *store.SnapshotView
		for step := 1; step <= 12; step++ {
			randomWorkloadStep(t, st, r, g, step)
			if step == 4 {
				base = st.CurrentView() // the persons after it are the overlay's
			}
			if step%3 == 0 {
				addQ1Shapes(t, st, r, g, step)
			}
		}
		v := st.CurrentView()
		if v.Era() != base.Era() || v.NumOfKind(ids.KindPerson) <= base.NumOfKind(ids.KindPerson) {
			t.Fatalf("seed %d: the last view is no refresh of the base holding later persons", seed)
		}
		readers := map[string]store.Reader{"refreshed view": v, "recompacted view": st.ViewAt(v.Timestamp())}
		st.View(func(tx *store.Txn) {
			readers["txn"] = tx
			sc := NewScratch()
			for name, rd := range readers {
				for _, p := range g.persons {
					for _, first := range randFirstNames {
						fwd, nsk := q1BothSides(rd, sc, p, first)
						if !rowsEqual(t, fwd, nsk) {
							t.Fatalf("seed %d %s Q1(%v, %s): forward %+v, from the namesakes %+v", seed, name, p, first, fwd, nsk)
						}
						if got := Q1(rd, sc, p, first); !rowsEqual(t, got, fwd) {
							t.Fatalf("seed %d %s Q1(%v, %s): %+v, forced sides %+v", seed, name, p, first, got, fwd)
						}
						for _, row := range fwd {
							dists[row.Distance]++
						}
					}
				}
			}
		})
	}
	if dists[1] == 0 || dists[2] == 0 || dists[3] == 0 {
		t.Errorf("rows at distance 1, 2, 3: %d, %d, %d; want some at each", dists[1], dists[2], dists[3])
	}
}
