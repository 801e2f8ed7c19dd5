package bi

import (
	"fmt"
	"reflect"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// The BI equivalence property tests: every query has one logical
// implementation factored into kernels shared by three execution paths —
// MVCC transaction, serial frozen view and morsel-parallel frozen view.
// These tests pin that all paths return identical results at the same
// snapshot timestamp, on the generated SNB graph, under interleaved
// updates, and on randomised schema-shaped graphs with forced view
// recompactions (era bumps).

// parConfigs are the worker fan-outs the parallel path is swept with; the
// small morsel size forces real multi-morsel scheduling even on the small
// test graphs.
var parConfigs = []exec.Config{
	{Workers: 1, MorselSize: 64},
	{Workers: 2, MorselSize: 64},
	{Workers: 8, MorselSize: 64},
}

// biEq compares one query's rows across paths, treating nil and empty as
// equal.
func biEq[T any](t *testing.T, query, path string, got, want []T) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s diverges on %s path:\n got %+v\nwant %+v", query, path, got, want)
	}
}

// assertBIAgree runs all eight BI queries on every path at the store's
// current watermark and fails on the first divergence. windowStart/
// windowLen parameterise BI2; createdBefore bounds BI6.
func assertBIAgree(t *testing.T, st *store.Store, windowStart, windowLen, createdBefore int64) {
	t.Helper()
	v := st.CurrentView()
	scV, scT := workload.NewScratch(), workload.NewScratch()
	st.View(func(tx *store.Txn) {
		if v.Timestamp() != tx.Snapshot() {
			t.Fatalf("snapshots diverge: view %d txn %d", v.Timestamp(), tx.Snapshot())
		}
		// Txn path is the reference; serial view first, then each fan-out.
		r1 := BI1(tx)
		biEq(t, "BI1", "view", BI1(v), r1)
		r2 := BI2(tx, windowStart, windowLen, 10)
		biEq(t, "BI2", "view", BI2(v, windowStart, windowLen, 10), r2)
		r3 := BI3(tx)
		biEq(t, "BI3", "view", BI3(v), r3)
		r4 := BI4(tx, 20)
		biEq(t, "BI4", "view", BI4(v, 20), r4)
		r5 := BI5(tx)
		biEq(t, "BI5", "view", BI5(v), r5)
		r6 := BI6(tx, createdBefore, 3)
		biEq(t, "BI6", "view", BI6(v, createdBefore, 3), r6)
		r7 := BI7(tx, scT, 10)
		biEq(t, "BI7", "view", BI7(v, scV, 10), r7)
		r8 := BI8(tx)
		biEq(t, "BI8", "view", BI8(v), r8)
		for _, par := range parConfigs {
			path := fmt.Sprintf("par%d", par.Workers)
			biEq(t, "BI1", path, BI1Par(v, par), r1)
			biEq(t, "BI2", path, BI2Par(v, par, windowStart, windowLen, 10), r2)
			biEq(t, "BI3", path, BI3Par(v, par), r3)
			biEq(t, "BI4", path, BI4Par(v, par, 20), r4)
			biEq(t, "BI5", path, BI5Par(v, par), r5)
			biEq(t, "BI6", path, BI6Par(v, par, createdBefore, 3), r6)
			biEq(t, "BI7", path, BI7Par(v, par, 10), r7)
			biEq(t, "BI8", path, BI8Par(v, par), r8)
		}
	})
}

// TestBIPathsAgreeOnSNB pins three-path equivalence on the generated SNB
// dataset.
func TestBIPathsAgreeOnSNB(t *testing.T) {
	st, _ := setup(t)
	win := int64(120 * 24 * 3600 * 1000)
	assertBIAgree(t, st, datagen.SimStart+win, win, datagen.SimEnd)
}

// TestBIPathsAgreeUnderInterleavedUpdates replays the update stream in
// chunks against a bulk-loaded store and re-checks three-path equivalence
// after every chunk — the parallel path must track each new epoch exactly.
func TestBIPathsAgreeUnderInterleavedUpdates(t *testing.T) {
	out := datagen.Generate(datagen.Config{Seed: 43, Persons: 120, Workers: 2, Events: true})
	bulk, updates := datagen.Split(out.Data, datagen.UpdateCut)
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
	win := int64(120 * 24 * 3600 * 1000)
	chunks := 3
	per := (len(updates) + chunks - 1) / chunks
	for start := 0; start < len(updates); start += per {
		end := min(start+per, len(updates))
		for i := start; i < end; i++ {
			if err := workload.ApplyUpdate(st, &updates[i]); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
		assertBIAgree(t, st, datagen.SimStart+win, win, datagen.SimEnd)
	}
}

// biRandGraph accumulates the random graph's entity population.
type biRandGraph struct {
	persons  []ids.ID
	messages []ids.ID
	forums   []ids.ID
	tags     []ids.ID
}

// loadBIRandomDimensions commits the dimension side: places, a small
// tag-class tree and tags (mirroring workload/random_test.go).
func loadBIRandomDimensions(t *testing.T, st *store.Store, g *biRandGraph) {
	t.Helper()
	tx := st.Begin()
	root := ids.DimensionID(ids.KindTagClass, 0)
	if err := tx.CreateNode(root, store.Props{store.NewProp(store.PropName, store.String("Thing"))}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		class := ids.DimensionID(ids.KindTagClass, uint32(i))
		if err := tx.CreateNode(class, store.Props{store.NewProp(store.PropName, store.String(fmt.Sprintf("class%d", i)))}); err != nil {
			t.Fatal(err)
		}
		_ = tx.AddEdge(class, store.EdgeIsSubclassOf, root, 0)
	}
	for i := 0; i < 8; i++ {
		tag := ids.DimensionID(ids.KindTag, uint32(i))
		if err := tx.CreateNode(tag, store.Props{store.NewProp(store.PropName, store.String(fmt.Sprintf("tag%d", i)))}); err != nil {
			t.Fatal(err)
		}
		_ = tx.AddEdge(tag, store.EdgeHasType, ids.DimensionID(ids.KindTagClass, uint32(1+i%3)), 0)
		g.tags = append(g.tags, tag)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// biRandomStep applies one random committed transaction: persons, knows
// edges, forums with members, tagged posts, reply comments, likes.
func biRandomStep(t *testing.T, st *store.Store, r *xrand.Rand, g *biRandGraph, step int) {
	t.Helper()
	tx := st.Begin()
	now := int64(step) * 100000
	addEdge := func(from ids.ID, et store.EdgeType, to ids.ID, stamp int64) {
		if err := tx.AddEdge(from, et, to, stamp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		p := ids.Compose(ids.KindPerson, int64(step), uint32(i))
		props := store.Props{
			store.NewProp(store.PropFirstName, store.String("P")),
			store.NewProp(store.PropCreationDate, store.Int64(now)),
		}
		if err := tx.CreateNode(p, props); err != nil {
			t.Fatal(err)
		}
		g.persons = append(g.persons, p)
	}
	for i := 0; i < 3; i++ {
		a := g.persons[r.Intn(len(g.persons))]
		b := g.persons[r.Intn(len(g.persons))]
		if a != b {
			_ = tx.AddKnows(a, b, now+int64(i))
		}
	}
	if step%2 == 0 {
		f := ids.Compose(ids.KindForum, int64(step), 0)
		if err := tx.CreateNode(f, store.Props{
			store.NewProp(store.PropTitle, store.String(fmt.Sprintf("forum%d", step))),
			store.NewProp(store.PropCreationDate, store.Int64(now)),
		}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			addEdge(f, store.EdgeHasMember, g.persons[r.Intn(len(g.persons))], now+int64(k))
		}
		g.forums = append(g.forums, f)
	}
	for i := 0; i < 2; i++ {
		post := ids.Compose(ids.KindPost, int64(step), uint32(i))
		created := now + int64(10+i)
		if err := tx.CreateNode(post, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(created)),
			store.NewProp(store.PropLength, store.Int64(int64(r.Intn(200)))),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
		}); err != nil {
			t.Fatal(err)
		}
		addEdge(post, store.EdgeHasCreator, g.persons[r.Intn(len(g.persons))], created)
		for k := 0; k < 1+r.Intn(2); k++ {
			addEdge(post, store.EdgeHasTag, g.tags[r.Intn(len(g.tags))], 0)
		}
		g.messages = append(g.messages, post)
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		c := ids.Compose(ids.KindComment, int64(step), uint32(i))
		created := now + int64(50+i)
		if err := tx.CreateNode(c, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(created)),
			store.NewProp(store.PropLength, store.Int64(int64(r.Intn(200)))),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
		}); err != nil {
			t.Fatal(err)
		}
		addEdge(c, store.EdgeReplyOf, g.messages[r.Intn(len(g.messages))], created)
		addEdge(c, store.EdgeHasCreator, g.persons[r.Intn(len(g.persons))], created)
		if r.Bool(0.5) {
			addEdge(c, store.EdgeHasTag, g.tags[r.Intn(len(g.tags))], 0)
		}
		g.messages = append(g.messages, c)
	}
	for i := 0; i < 2; i++ {
		addEdge(g.persons[r.Intn(len(g.persons))], store.EdgeLikes,
			g.messages[r.Intn(len(g.messages))], now+int64(80+i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBIPathsAgreeOnRandomGraphs grows random schema-shaped graphs with
// interleaved commits and periodically forced view recompactions,
// asserting three-path equivalence at every epoch. The pooled scratches
// cross the forced era bumps warm, so BI7's reach would show any scratch
// state that outlived the view it was built on.
func TestBIPathsAgreeOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		r := xrand.New(seed)
		st := store.New()
		g := &biRandGraph{}
		loadBIRandomDimensions(t, st, g)
		for step := 1; step <= 8; step++ {
			if step == 5 {
				// Force a full recompaction (era bump) on the next view
				// advance, then restore the default threshold.
				st.SetViewCompactThreshold(0)
			} else if step == 6 {
				st.SetViewCompactThreshold(4096)
			}
			biRandomStep(t, st, r, g, step)
			assertBIAgree(t, st, 0, 200000, int64(step+1)*100000)
		}
	}
}
