package bi

import (
	"fmt"
	"math"
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

// The BI equivalence property tests: every query has one body, run on the
// MVCC transaction or on a snapshot view, with the fan-out as an argument.
// These tests pin that the txn path and the view at every fan-out return
// identical results at the same snapshot timestamp, on the generated SNB
// graph, under interleaved updates, on randomised schema-shaped graphs
// with forced view recompactions (era bumps), and on a held view whose
// era's writer keeps appending.

// parConfigs are the worker fan-outs the view is swept with; the small
// morsel size forces real multi-morsel scheduling even on the small test
// graphs, and one morsel per claim interleaves the workers' partials node
// by node.
var parConfigs = []exec.Config{
	{Workers: 1, MorselSize: 64},
	{Workers: 2, MorselSize: 64},
	{Workers: 8, MorselSize: 64},
	{Workers: 4, MorselSize: 1},
}

// biRuns returns, per query, a closure running it on r with par's fan-out;
// BI7 walks with sc (pooled scratches when nil). windowStart/windowLen
// parameterise BI2; createdBefore bounds BI6.
func biRuns[R store.Reader](r R, par exec.Config, sc *workload.Scratch, windowStart, windowLen, createdBefore int64) [NumQueries]func() any {
	return [NumQueries]func() any{
		func() any { return BI1(r, par) },
		func() any { return BI2(r, par, windowStart, windowLen, 10) },
		func() any { return BI3(r, par) },
		func() any { return BI4(r, par, 20) },
		func() any { return BI5(r, par) },
		func() any { return BI6(r, par, createdBefore, 3) },
		func() any { return BI7(r, par, sc, 10) },
		func() any { return BI8(r, par) },
	}
}

// biEq compares one query's rows across paths, treating nil and empty as
// equal.
func biEq(t *testing.T, query, path string, got, want any) {
	t.Helper()
	if reflect.ValueOf(got).Len() == 0 && reflect.ValueOf(want).Len() == 0 {
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
	st.View(func(tx *store.Txn) {
		if v.Timestamp() != tx.Snapshot() {
			t.Fatalf("snapshots diverge: view %d txn %d", v.Timestamp(), tx.Snapshot())
		}
		// The txn path is the reference; the view on one worker, then each
		// fan-out.
		var want [NumQueries]any
		for q, run := range biRuns(tx, serial, workload.NewScratch(), windowStart, windowLen, createdBefore) {
			want[q] = run()
		}
		check := func(path string, runs [NumQueries]func() any) {
			t.Helper()
			for q, run := range runs {
				biEq(t, fmt.Sprintf("BI%d", q+1), path, run(), want[q])
			}
		}
		check("view", biRuns(v, serial, workload.NewScratch(), windowStart, windowLen, createdBefore))
		for _, par := range parConfigs {
			check(fmt.Sprintf("par%d", par.Workers), biRuns(v, par, nil, windowStart, windowLen, createdBefore))
		}
	})
}

// TestBIPathsAgreeOnSNB pins path equivalence on the generated SNB
// dataset.
func TestBIPathsAgreeOnSNB(t *testing.T) {
	st, _ := setup(t)
	win := int64(120 * 24 * 3600 * 1000)
	assertBIAgree(t, st, datagen.SimStart+win, win, datagen.SimEnd)
}

// TestBIPathsAgreeUnderInterleavedUpdates replays the update stream in
// chunks against a bulk-loaded store and re-checks path equivalence after
// every chunk — every fan-out must track each new epoch exactly.
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
// edges, forums with members, tagged posts, reply comments, likes. It
// reports failure as an error, so a writer goroutine can run it.
func biRandomStep(st *store.Store, r *xrand.Rand, g *biRandGraph, step int) error {
	tx := st.Begin()
	now := int64(step) * 100000
	var err error
	createNode := func(id ids.ID, props store.Props) {
		if err == nil {
			err = tx.CreateNode(id, props)
		}
	}
	addEdge := func(from ids.ID, et store.EdgeType, to ids.ID, stamp int64) {
		if err == nil {
			err = tx.AddEdge(from, et, to, stamp)
		}
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		p := ids.Compose(ids.KindPerson, int64(step), uint32(i))
		props := store.Props{
			store.NewProp(store.PropFirstName, store.String("P")),
			store.NewProp(store.PropCreationDate, store.Int64(now)),
		}
		createNode(p, props)
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
		createNode(f, store.Props{
			store.NewProp(store.PropTitle, store.String(fmt.Sprintf("forum%d", step))),
			store.NewProp(store.PropCreationDate, store.Int64(now)),
		})
		for k := 0; k < 2; k++ {
			addEdge(f, store.EdgeHasMember, g.persons[r.Intn(len(g.persons))], now+int64(k))
		}
		g.forums = append(g.forums, f)
	}
	for i := 0; i < 2; i++ {
		post := ids.Compose(ids.KindPost, int64(step), uint32(i))
		created := now + int64(10+i)
		createNode(post, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(created)),
			store.NewProp(store.PropLength, store.Int64(int64(r.Intn(200)))),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
		})
		addEdge(post, store.EdgeHasCreator, g.persons[r.Intn(len(g.persons))], created)
		for k := 0; k < 1+r.Intn(2); k++ {
			addEdge(post, store.EdgeHasTag, g.tags[r.Intn(len(g.tags))], 0)
		}
		g.messages = append(g.messages, post)
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		c := ids.Compose(ids.KindComment, int64(step), uint32(i))
		created := now + int64(50+i)
		createNode(c, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(created)),
			store.NewProp(store.PropLength, store.Int64(int64(r.Intn(200)))),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
		})
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
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
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
				// Force an inline rebuild (era bump) on the next view
				// advance, then set a threshold the later steps stay under.
				st.SetViewCompactThreshold(0)
			} else if step == 6 {
				st.SetViewCompactThreshold(4096)
			}
			if err := biRandomStep(st, r, g, step); err != nil {
				t.Fatal(err)
			}
			assertBIAgree(t, st, 0, 200000, int64(step+1)*100000)
			bumps := int64(0)
			if step >= 5 {
				bumps = 1
			}
			if vs := st.ViewStats(); vs.EraBumps != bumps || vs.Rebuilds != 1+bumps {
				t.Fatalf("seed %d step %d: %+v, want %d inline era bumps", seed, step, vs, bumps)
			}
		}
	}
}

// TestBIParallelOnHeldViewUnderRefresh runs every query on four workers,
// one morsel per claim, over a held view while a writer keeps committing
// and refreshing the cached view in the same era. Each refresh appends in
// place into the overlay rows and per-kind lists the held view shares, so
// a worker that read past the header its view published, or kept an
// appended entry stamped after the view's timestamp, would change a digest
// against a view compacted at the held timestamp.
func TestBIParallelOnHeldViewUnderRefresh(t *testing.T) {
	r := xrand.New(3)
	st := store.New()
	// The writer runs as long as the readers do; no overlay size may make
	// a reader rebuild, which would move the cached view to a new era.
	st.SetViewCompactThreshold(math.MaxInt32)
	g := &biRandGraph{}
	loadBIRandomDimensions(t, st, g)
	step := 1
	for ; step <= 4; step++ {
		if err := biRandomStep(st, r, g, step); err != nil {
			t.Fatal(err)
		}
		st.CurrentView()
	}
	held := st.CurrentView()
	const windowLen, createdBefore = 200000, 300000
	var want [NumQueries]string
	for q, run := range biRuns(st.ViewAt(held.Timestamp()), serial, workload.NewScratch(), 0, windowLen, createdBefore) {
		want[q] = rowDigest(run())
	}
	before := st.ViewStats()

	stop, errc := make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(errc)
		for ; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := biRandomStep(st, r, g, step); err != nil {
				errc <- err
				return
			}
			st.CurrentView()
		}
	}()
	runs := biRuns(held, exec.Config{Workers: 4, MorselSize: 1}, nil, 0, windowLen, createdBefore)
	for round := 0; round < 20; round++ {
		for q, run := range runs {
			if got := rowDigest(run()); got != want[q] {
				t.Errorf("round %d: BI%d on the held view: digest %s, want %s", round, q+1, got, want[q])
			}
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	after := st.ViewStats()
	if after.Refreshes <= before.Refreshes {
		t.Fatalf("no refresh ran beside the readers (%d before, %d after)", before.Refreshes, after.Refreshes)
	}
	if after.EraBumps != before.EraBumps {
		t.Fatalf("era bumped %d times: the held view no longer shares the writer's overlay", after.EraBumps-before.EraBumps)
	}
}

// TestBISlotTiersOnRefreshedView pins the partials' three slot tiers
// (slots.go) on a refreshed view, where all three meet: the view's base
// holds a reply cycle, messages of countries -1, 3 and 1<<32|3 (3 inside
// the place dimension, the others not) and a tag whose ID is outside the
// DimensionID scheme but shares a sequence with a tag inside it; its
// overlay adds a person, messages by base persons (their hasCreator rows
// are overlay rows, which hand the creator over unresolved) and by the new
// person, reply chains that climb from overlay comments into base ones, a
// reply into the base cycle and a cycle of its own. Every query must agree
// on the txn, on the view serially and at every fan-out; BI2's counts must
// match each tag's hasTag in-degree, BI3 must keep the three countries
// apart, and BI4 must report each person once.
func TestBISlotTiersOnRefreshedView(t *testing.T) {
	r := xrand.New(5)
	st := store.New()
	st.SetViewCompactThreshold(math.MaxInt32)
	g := &biRandGraph{}
	loadBIRandomDimensions(t, st, g)
	for step := 1; step <= 4; step++ {
		if err := biRandomStep(st, r, g, step); err != nil {
			t.Fatal(err)
		}
	}
	const bucket = 50 // past every step's minute bucket
	odd := ids.Compose(ids.KindTag, 1, 3)
	commit := func(build func(tx *store.Txn, add func(from ids.ID, et store.EdgeType, to ids.ID))) {
		t.Helper()
		tx := st.Begin()
		add := func(from ids.ID, et store.EdgeType, to ids.ID) {
			if err := tx.AddEdge(from, et, to, 0); err != nil {
				t.Fatal(err)
			}
		}
		build(tx, add)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// message creates a message with its creator, country and tags.
	message := func(tx *store.Txn, add func(ids.ID, store.EdgeType, ids.ID), id, creator ids.ID, country int64, tags ...ids.ID) {
		t.Helper()
		if err := tx.CreateNode(id, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(int64(id.MinuteBucket())*100000)),
			store.NewProp(store.PropLength, store.Int64(50)),
			store.NewProp(store.PropCountry, store.Int64(country)),
		}); err != nil {
			t.Fatal(err)
		}
		add(id, store.EdgeHasCreator, creator)
		for _, tag := range tags {
			add(id, store.EdgeHasTag, tag)
		}
	}
	post := func(b int64, seq uint32) ids.ID { return ids.Compose(ids.KindPost, b, seq) }
	comment := func(b int64, seq uint32) ids.ID { return ids.Compose(ids.KindComment, b, seq) }
	far := int64(1) << 32

	commit(func(tx *store.Txn, add func(ids.ID, store.EdgeType, ids.ID)) {
		for i := uint32(0); i < 5; i++ {
			if err := tx.CreateNode(ids.DimensionID(ids.KindPlace, i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.CreateNode(odd, store.Props{store.NewProp(store.PropName, store.String("odd"))}); err != nil {
			t.Fatal(err)
		}
		add(odd, store.EdgeHasType, ids.DimensionID(ids.KindTagClass, 2))
		a, b := g.persons[0], g.persons[1]
		message(tx, add, post(bucket, 0), a, 3, g.tags[0], odd)
		message(tx, add, post(bucket, 1), b, far|3, g.tags[1], g.tags[3])
		message(tx, add, post(bucket, 2), a, -1, g.tags[2])
		// A chain onto a post, and a two-comment cycle with a lead-in.
		message(tx, add, comment(bucket, 0), b, 3, odd)
		add(comment(bucket, 0), store.EdgeReplyOf, post(bucket, 0))
		for seq := uint32(1); seq <= 3; seq++ {
			message(tx, add, comment(bucket, seq), a, far|3, g.tags[3])
		}
		add(comment(bucket, 1), store.EdgeReplyOf, comment(bucket, 2))
		add(comment(bucket, 2), store.EdgeReplyOf, comment(bucket, 1))
		add(comment(bucket, 3), store.EdgeReplyOf, comment(bucket, 1))
	})
	base := st.CurrentView()

	newcomer := ids.Compose(ids.KindPerson, bucket+10, 0)
	commit(func(tx *store.Txn, add func(ids.ID, store.EdgeType, ids.ID)) {
		if err := tx.CreateNode(newcomer, nil); err != nil {
			t.Fatal(err)
		}
		a, b := g.persons[0], g.persons[1]
		message(tx, add, post(bucket+10, 0), a, 3, odd, g.tags[3])
		message(tx, add, post(bucket+10, 1), newcomer, far|3, g.tags[3])
		// Overlay comments climbing into base ones, one into the base cycle.
		message(tx, add, comment(bucket+10, 0), b, -1, odd)
		add(comment(bucket+10, 0), store.EdgeReplyOf, comment(bucket, 0))
		message(tx, add, comment(bucket+10, 1), newcomer, 3)
		add(comment(bucket+10, 1), store.EdgeReplyOf, comment(bucket+10, 0))
		message(tx, add, comment(bucket+10, 2), a, 3)
		add(comment(bucket+10, 2), store.EdgeReplyOf, comment(bucket, 3))
		// A three-comment cycle of the overlay, with a lead-in.
		for seq := uint32(3); seq <= 6; seq++ {
			message(tx, add, comment(bucket+10, seq), newcomer, 0, g.tags[seq-3])
		}
		add(comment(bucket+10, 3), store.EdgeReplyOf, comment(bucket+10, 5))
		add(comment(bucket+10, 4), store.EdgeReplyOf, comment(bucket+10, 3))
		add(comment(bucket+10, 5), store.EdgeReplyOf, comment(bucket+10, 4))
		add(comment(bucket+10, 6), store.EdgeReplyOf, comment(bucket+10, 4))
	})
	v, ev := st.AcquireView()
	if ev != store.ViewRefreshed || v.Era() != base.Era() {
		t.Fatalf("after the overlay commit: %v, era %d -> %d", ev, base.Era(), v.Era())
	}

	const windowLen, createdBefore = 1 << 40, 1 << 40
	assertBIAgree(t, st, 0, windowLen, createdBefore)

	st.View(func(tx *store.Txn) {
		for _, c := range []struct {
			path string
			rows func() ([]BI2Row, []BI3Row, []BI4Row)
		}{
			{"txn", func() ([]BI2Row, []BI3Row, []BI4Row) {
				return BI2(tx, serial, 0, windowLen, 1<<20), BI3(tx, serial), BI4(tx, serial, 1<<20)
			}},
			{"view", func() ([]BI2Row, []BI3Row, []BI4Row) {
				par := exec.Config{Workers: 4, MorselSize: 1}
				return BI2(v, par, 0, windowLen, 1<<20), BI3(v, par), BI4(v, par, 1<<20)
			}},
		} {
			bi2, bi3, bi4 := c.rows()
			tagged := 0
			for _, tag := range tx.NodesOfKind(ids.KindTag) {
				if tx.InDegree(tag, store.EdgeHasTag) > 0 {
					tagged++
				}
			}
			if len(bi2) != tagged {
				t.Errorf("%s: BI2 reports %d tags, %d are tagged: %+v", c.path, len(bi2), tagged, bi2)
			}
			for _, row := range bi2 {
				if want := tx.InDegree(row.Tag, store.EdgeHasTag); row.CountA != want || row.CountB != 0 {
					t.Errorf("%s: BI2 counts %v (%s) %d/%d, its hasTag in-degree is %d", c.path, row.Tag, row.Name, row.CountA, row.CountB, want)
				}
			}
			var countries []int
			for _, row := range bi3 {
				countries = append(countries, row.Country)
			}
			if want := []int{-1, 0, 1, 2, 3, int(far | 3)}; !reflect.DeepEqual(countries, want) {
				t.Errorf("%s: BI3 countries %v, want %v", c.path, countries, want)
			}
			messages := 0
			for _, row := range bi4 {
				messages += row.Messages
			}
			for i := 1; i < len(bi4); i++ {
				for j := 0; j < i; j++ {
					if bi4[i].Person == bi4[j].Person {
						t.Fatalf("%s: BI4 reports %v twice: %+v", c.path, bi4[i].Person, bi4)
					}
				}
			}
			if want := len(tx.NodesOfKind(ids.KindPost)) + len(tx.NodesOfKind(ids.KindComment)); messages != want {
				t.Errorf("%s: BI4 credits %d messages, %d exist", c.path, messages, want)
			}
		}
	})
}
