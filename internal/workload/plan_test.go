package workload

import (
	"crypto/sha256"
	"encoding/hex"
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
