package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/params"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// The path-query tests: Q13 and Q14 against a reference built from the raw
// dataset, their answers (with Q4–Q7's and Q9Join's) pinned by content on
// the parameter pool, and Q14's path cap on a fixture dense enough to hit
// it.

// pathFixture is a 200-person dataset loaded twice: fully into fresh, and
// into refreshed as the bulk part plus the update stream, with the view
// advanced by delta refreshes only (compaction off), so its answers come
// from the overlay.
type pathFixture struct {
	data      *schema.Dataset
	fresh     *store.Store
	refreshed *store.Store
	pool      []ids.ID // the Q9-curated person pool the driver binds Q13/Q14 from
	isolated  ids.ID   // a person in both stores with no knows edge
}

var (
	pathFixOnce sync.Once
	pathFix     pathFixture
	pathFixErr  error
)

func pathSetup(t *testing.T) *pathFixture {
	t.Helper()
	pathFixOnce.Do(func() { pathFixErr = buildPathFixture(&pathFix) })
	if pathFixErr != nil {
		t.Fatal(pathFixErr)
	}
	return &pathFix
}

func buildPathFixture(f *pathFixture) error {
	f.data = datagen.Generate(datagen.Config{Seed: 41, Persons: 200, Workers: 2}).Data
	f.fresh = store.New()
	if err := schema.LoadDimensions(f.fresh); err != nil {
		return err
	}
	if err := schema.Load(f.fresh, f.data); err != nil {
		return err
	}
	f.isolated = ids.Compose(ids.KindPerson, 1<<38, 7)
	if err := addPerson(f.fresh, f.isolated); err != nil {
		return err
	}
	for _, p := range params.BuildQ9Table(f.data).Curate(40) {
		f.pool = append(f.pool, ids.ID(p))
	}

	bulk, updates := datagen.Split(f.data, datagen.UpdateCut)
	f.refreshed = store.New()
	f.refreshed.SetViewCompactThreshold(1 << 30)
	if err := schema.LoadDimensions(f.refreshed); err != nil {
		return err
	}
	if err := schema.Load(f.refreshed, bulk); err != nil {
		return err
	}
	f.refreshed.CurrentView()
	for i := range updates {
		if err := ApplyUpdate(f.refreshed, &updates[i]); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
		if i%32 == 31 {
			f.refreshed.CurrentView()
		}
		if i == len(updates)/2 {
			if err := addPerson(f.refreshed, f.isolated); err != nil {
				return err
			}
		}
	}
	f.refreshed.CurrentView()
	if n := f.refreshed.ViewStats().Rebuilds; n != 1 {
		return fmt.Errorf("refreshed store rebuilt its view %d times, want only the first build", n)
	}
	return nil
}

func addPerson(st *store.Store, p ids.ID) error {
	tx := st.Begin()
	if err := tx.CreateNode(p, store.Props{store.NewProp(store.PropFirstName, store.String("Isolde"))}); err != nil {
		return err
	}
	return tx.Commit()
}

// poolPairs draws 200 (a, b) pairs from the pool the way Q13/Q14's Bind
// does, so some pairs repeat a person (a == b).
func poolPairs(pool []ids.ID) [][2]ids.ID {
	r := xrand.New(25)
	out := make([][2]ids.ID, 200)
	for i := range out {
		out[i] = [2]ids.ID{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}
	}
	return out
}

// digestQuery is one row of TestRowDigests: a query run over every pool
// binding on one reader, each binding's rows printed with %+v into w, and
// the hex sha256 of that text recorded when the rows were last known good.
type digestQuery struct {
	name string
	want string
	run  func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer)
}

// digestWindow is the [start, start+window) date range the window-bound
// queries use: the last 120 days of the fixture's posts, as the driver's
// pools bind it.
func digestWindow(f *pathFixture) (start, window int64) {
	var end int64
	for i := range f.data.Posts {
		end = max(end, f.data.Posts[i].CreationDate)
	}
	window = 120 * 24 * 3600 * 1000
	return end - window, window
}

// wantQ9Digest is Q9Join's digest under every plan: the plans differ in
// physical operators only.
const wantQ9Digest = "0e11f816f53d1a477e395b3865624a920fb0bee0b74afe19e25493f940d89b9e"

// q9JoinDigest runs Q9Join under one plan on every pool person.
func q9JoinDigest(plan Q9Plan) func(store.Reader, *Scratch, *pathFixture, io.Writer) {
	return func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
		start, _ := digestWindow(f)
		for _, p := range f.pool {
			fmt.Fprintf(w, "%v %+v\n", p, Q9Join(r, sc, p, start, plan))
		}
	}
}

// wantQ6SidesDigest is the digest of printQ6Sides with Q6's rows, and
// with each of its sides forced (TestQ6SidesAgreeOnFixture).
const wantQ6SidesDigest = "6d958ce36659e5f98a3332c4d8ac1cdf730bce21546242bba9941473ec80ec08"

// printQ6Sides prints the rows q6 returns for every pool person and the
// isolated person (whose empty environment Q6 plans from the environment
// side) with each of q6SideTags.
func printQ6Sides(f *pathFixture, w io.Writer, q6 func(p, tag ids.ID) []Q6Row) {
	for _, p := range append(slices.Clip(f.pool), f.isolated) {
		for _, tag := range q6SideTags(f.data) {
			fmt.Fprintf(w, "%v %v %+v\n", p, tag, q6(p, tag))
		}
	}
}

// q6SideTags returns three Q6 tag bindings across the range of costs of
// Q6's tag side: the tag on the most posts, one at the median and the one
// on the fewest posts (ties to the lower tag index).
func q6SideTags(d *schema.Dataset) [3]ids.ID {
	posts := make([]int, len(dict.Tags))
	for i := range d.Posts {
		for _, tg := range d.Posts[i].Tags {
			posts[tg]++
		}
	}
	order := make([]int, 0, len(posts))
	for tg, n := range posts {
		if n > 0 {
			order = append(order, tg)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return posts[b] - posts[a] })
	return [3]ids.ID{
		schema.TagNodeID(order[0]),
		schema.TagNodeID(order[len(order)/2]),
		schema.TagNodeID(order[len(order)-1]),
	}
}

// wantQ1Digest is the digest of printQ1 with Q1's rows, and with each of
// its sides forced (TestQ1SidesAgreeOnFixture).
const wantQ1Digest = "c18dc9d3e27de60497f2ce49d6e54cca6a228c79c44d41c9399091bf59d96c90"

// printQ1 prints the rows q1 returns for every pool person and the
// isolated person with each of q1DigestNames, and for each pool person
// with the name of the first person more than 3 knows hops away, if any:
// a namesake Q1 must not return.
func printQ1(f *pathFixture, w io.Writer, q1 func(p ids.ID, name string) []Q1Row) {
	g := newRefGraph(f.data)
	for _, p := range append(slices.Clip(f.pool), f.isolated) {
		names := q1DigestNames(f.data)
		dist := g.dist(p)
		for i := range f.data.Persons {
			if d, ok := dist[f.data.Persons[i].ID]; ok && d > 3 {
				names = append(names, f.data.Persons[i].FirstName)
				break
			}
		}
		for _, name := range names {
			fmt.Fprintf(w, "%v %s %+v\n", p, name, q1(p, name))
		}
	}
}

// q1DigestNames returns Q1's name bindings: the fixture's four most
// common first names (ties to the earlier name), so that most bindings
// have namesakes at every distance, and the isolated person's.
func q1DigestNames(d *schema.Dataset) []string {
	count := map[string]int{}
	var names []string
	for i := range d.Persons {
		if n := d.Persons[i].FirstName; count[n] == 0 {
			names = append(names, n)
		}
		count[d.Persons[i].FirstName]++
	}
	slices.SortStableFunc(names, func(a, b string) int { return count[b] - count[a] })
	return append(names[:4:4], "Isolde")
}

// rowDigests pins the queries whose keyed scratch state (counts, visited
// sets, path distances, hash-join tables) has been rebuilt at least once, on
// the pool bindings of pathSetup's fixture. No Q13/Q14 pool pair there has
// more than q14PathCap shortest paths, so every Q14 row is the full answer.
var rowDigests = []digestQuery{
	{"Q1", wantQ1Digest,
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			printQ1(f, w, func(p ids.ID, name string) []Q1Row { return Q1(r, sc, p, name) })
		}},
	{"Q4", "4f4ace066889fae86ec26b1f9005d2b41836540233c3fd7085d85d93f38e5e75",
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			start, window := digestWindow(f)
			for _, p := range f.pool {
				fmt.Fprintf(w, "%v %+v\n", p, Q4(r, sc, p, start, window))
			}
		}},
	{"Q5", "cd52c8ebe45ba97dba06bf41643e4e95544e8c98844116331dc1bda4925244e6",
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			start, _ := digestWindow(f)
			for _, p := range f.pool {
				fmt.Fprintf(w, "%v %+v\n", p, Q5(r, sc, p, start))
			}
		}},
	{"Q6", "869696ef821a64d5ec1a989363bc1c1f91cb4614653996d2343ae3f4e2e46f1e",
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			for i, p := range f.pool {
				tag := schema.TagNodeID(f.data.Posts[i*97%len(f.data.Posts)].Topic)
				fmt.Fprintf(w, "%v %v %+v\n", p, tag, Q6(r, sc, p, tag))
			}
		}},
	{"Q6/sides", wantQ6SidesDigest,
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			printQ6Sides(f, w, func(p, tag ids.ID) []Q6Row { return Q6(r, sc, p, tag) })
		}},
	{"Q12", "444cab22b9a0076e1c5002f6542f57643b9eb7627b4b2c3bfadcc4469bb58055",
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			for _, p := range f.pool {
				for c := range dict.TagClasses {
					class := ids.DimensionID(ids.KindTagClass, uint32(c))
					fmt.Fprintf(w, "%v %v %+v\n", p, class, Q12(r, sc, p, class))
				}
			}
		}},
	{"Q7", "e8f5992858d41f995481c6853bf4213f2baf9b475e262c616b5334b9fce47f97",
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			for _, p := range f.pool {
				fmt.Fprintf(w, "%v %+v\n", p, Q7(r, sc, p))
			}
		}},
	{"Q9Join/inl-inl", wantQ9Digest, q9JoinDigest(Q9Plan{FriendExpand: JoinINL, MessageJoin: JoinINL})},
	{"Q9Join/inl-hash", wantQ9Digest, q9JoinDigest(Q9Plan{FriendExpand: JoinINL, MessageJoin: JoinHash})},
	{"Q9Join/hash-inl", wantQ9Digest, q9JoinDigest(Q9Plan{FriendExpand: JoinHash, MessageJoin: JoinINL})},
	{"Q9Join/hash-hash", wantQ9Digest, q9JoinDigest(Q9Plan{FriendExpand: JoinHash, MessageJoin: JoinHash})},
	{"Q13Q14", "3a90e1e021933f08fae974d6057858c59b5e1a4cda68056ac0e08188c800cf85",
		func(r store.Reader, sc *Scratch, f *pathFixture, w io.Writer) {
			for _, p := range poolPairs(f.pool) {
				fmt.Fprintf(w, "%v %v %d %+v\n", p[0], p[1], Q13(r, sc, p[0], p[1]), Q14(r, sc, p[0], p[1]))
			}
		}},
}

// TestRowDigests pins each rowDigests query by content on the txn path, a
// fresh view, a delta-refreshed view and a recompaction of the refreshed
// view at its timestamp, with one scratch reused across all of them. The
// last step crosses an era bump with the scratch warm from the refreshed
// view: the same node now has a different ordinal, so state keyed by
// anything but the node would show in the digests.
func TestRowDigests(t *testing.T) {
	f := pathSetup(t)
	refreshed := f.refreshed.CurrentView()
	recompacted := f.refreshed.ViewAt(refreshed.Timestamp())
	if recompacted.Era() == refreshed.Era() {
		t.Fatal("setup: the recompacted view kept the refreshed view's era")
	}
	sc := NewScratch()
	for _, q := range rowDigests {
		digest := func(r store.Reader) string {
			h := sha256.New()
			q.run(r, sc, f, h)
			return hex.EncodeToString(h.Sum(nil))
		}
		f.fresh.View(func(tx *store.Txn) {
			if got := digest(tx); got != q.want {
				t.Errorf("%s, txn path: digest %s, want %s", q.name, got, q.want)
			}
		})
		if got := digest(f.fresh.CurrentView()); got != q.want {
			t.Errorf("%s, fresh view: digest %s, want %s", q.name, got, q.want)
		}
		if got := digest(refreshed); got != q.want {
			t.Errorf("%s, refreshed view: digest %s, want %s", q.name, got, q.want)
		}
		if got := digest(recompacted); got != q.want {
			t.Errorf("%s, recompacted view: digest %s, want %s", q.name, got, q.want)
		}
	}
}

// refGraph is the reference model of Q13 and Q14, built from the raw
// dataset: knows adjacency with one entry per edge (parallel edges
// repeat), each message's creator and each comment's reply target.
type refGraph struct {
	adj      map[ids.ID][]ids.ID
	creator  map[ids.ID]ids.ID
	replyOf  map[ids.ID]ids.ID
	comments map[ids.ID][]ids.ID // person -> the comments they wrote
}

func newRefGraph(d *schema.Dataset) *refGraph {
	g := &refGraph{
		adj:      map[ids.ID][]ids.ID{},
		creator:  map[ids.ID]ids.ID{},
		replyOf:  map[ids.ID]ids.ID{},
		comments: map[ids.ID][]ids.ID{},
	}
	for _, k := range d.Knows {
		g.adj[k.A] = append(g.adj[k.A], k.B)
		g.adj[k.B] = append(g.adj[k.B], k.A)
	}
	for i := range d.Posts {
		g.creator[d.Posts[i].ID] = d.Posts[i].Creator
	}
	for i := range d.Comments {
		c := &d.Comments[i]
		g.creator[c.ID] = c.Creator
		g.replyOf[c.ID] = c.ReplyOf
		g.comments[c.Creator] = append(g.comments[c.Creator], c.ID)
	}
	return g
}

// dist returns the knows distance of every person reachable from src.
func (g *refGraph) dist(src ids.ID) map[ids.ID]int {
	d := map[ids.ID]int{src: 0}
	for queue := []ids.ID{src}; len(queue) > 0; queue = queue[1:] {
		for _, y := range g.adj[queue[0]] {
			if _, ok := d[y]; !ok {
				d[y] = d[queue[0]] + 1
				queue = append(queue, y)
			}
		}
	}
	return d
}

// paths returns every shortest knows path from a to b, once per choice of
// parallel edges, or nil when b is unreachable.
func (g *refGraph) paths(a, b ids.ID) [][]ids.ID {
	da, db := g.dist(a), g.dist(b)
	n, ok := da[b]
	if !ok {
		return nil
	}
	var out [][]ids.ID
	var walk func(path []ids.ID)
	walk = func(path []ids.ID) {
		x := path[len(path)-1]
		if x == b {
			out = append(out, slices.Clone(path))
			return
		}
		for _, y := range g.adj[x] {
			if da[y] == len(path) && db[y] == n-len(path) {
				walk(append(path, y))
			}
		}
	}
	walk([]ids.ID{a})
	return out
}

// weight is the interaction weight of one step: 1.0 per comment of either
// person replying to a post of the other, 0.5 per reply to a comment.
func (g *refGraph) weight(x, y ids.ID) float64 {
	w := 0.0
	for _, pair := range [][2]ids.ID{{x, y}, {y, x}} {
		for _, c := range g.comments[pair[0]] {
			parent := g.replyOf[c]
			if g.creator[parent] != pair[1] {
				continue
			}
			if parent.Kind() == ids.KindPost {
				w += 1.0
			} else {
				w += 0.5
			}
		}
	}
	return w
}

// q14 is the reference Q14: every shortest path with its weight, heaviest
// first, ties by path.
func (g *refGraph) q14(a, b ids.ID) []Q14Row {
	var rows []Q14Row
	for _, p := range g.paths(a, b) {
		w := 0.0
		for i := 0; i+1 < len(p); i++ {
			w += g.weight(p[i], p[i+1])
		}
		rows = append(rows, Q14Row{Path: p, Weight: w})
	}
	sortQ14Rows(rows)
	return rows
}

func sortQ14Rows(rows []Q14Row) {
	slices.SortFunc(rows, func(x, y Q14Row) int {
		if x.Weight != y.Weight {
			if x.Weight > y.Weight {
				return -1
			}
			return 1
		}
		return slices.Compare(x.Path, y.Path)
	})
}

// TestQ14AgainstReference checks Q13 and Q14 against the reference model on
// the txn path, a fresh view and a delta-refreshed view: every shortest
// path with its multiplicity and weight, on the pool pairs, on pairs drawn
// from all persons, on pairs with no path and on a == b.
func TestQ14AgainstReference(t *testing.T) {
	f := pathSetup(t)
	g := newRefGraph(f.data)
	pairs := poolPairs(f.pool)
	r := xrand.New(26)
	for i := 0; i < 100; i++ {
		pairs = append(pairs, [2]ids.ID{
			f.data.Persons[r.Intn(len(f.data.Persons))].ID,
			f.data.Persons[r.Intn(len(f.data.Persons))].ID,
		})
	}
	// A person with no knows edge has no path to anyone else, and neither
	// has a person the store does not hold.
	missing := ids.Compose(ids.KindPerson, 1<<38, 8)
	pairs = append(pairs,
		[2]ids.ID{f.isolated, f.pool[0]}, [2]ids.ID{f.pool[1], f.isolated},
		[2]ids.ID{missing, f.pool[2]}, [2]ids.ID{f.pool[3], missing})
	var noPath, same, maxRows int
	for _, p := range pairs {
		ref := g.q14(p[0], p[1])
		switch {
		case p[0] == p[1]:
			same++
		case len(ref) == 0:
			noPath++
		}
		maxRows = max(maxRows, len(ref))
	}
	if noPath == 0 || same == 0 {
		t.Fatalf("pairs cover %d without a path and %d with a == b, want some of each", noPath, same)
	}
	if maxRows > q14PathCap {
		t.Fatalf("a pair has %d shortest paths, more than the cap %d: the reference no longer gives full rows", maxRows, q14PathCap)
	}
	check := func(name string, q13 func(a, b ids.ID) int, q14 func(a, b ids.ID) []Q14Row) {
		t.Helper()
		for _, p := range pairs {
			want := g.q14(p[0], p[1])
			wantLen := -1
			if len(want) > 0 {
				wantLen = len(want[0].Path) - 1
			}
			if got := q13(p[0], p[1]); got != wantLen {
				t.Fatalf("%s: Q13(%v,%v) = %d, want %d", name, p[0], p[1], got, wantLen)
			}
			if got := q14(p[0], p[1]); !rowsEqual(t, got, want) {
				t.Fatalf("%s: Q14(%v,%v) =\n%+v\nwant\n%+v", name, p[0], p[1], got, want)
			}
		}
	}
	sc := NewScratch()
	f.fresh.View(func(tx *store.Txn) {
		check("txn",
			func(a, b ids.ID) int { return Q13(tx, sc, a, b) },
			func(a, b ids.ID) []Q14Row { return Q14(tx, sc, a, b) })
	})
	for _, c := range []struct {
		name string
		v    *store.SnapshotView
	}{{"fresh view", f.fresh.CurrentView()}, {"refreshed view", f.refreshed.CurrentView()}} {
		check(c.name,
			func(a, b ids.ID) int { return Q13(c.v, sc, a, b) },
			func(a, b ids.ID) []Q14Row { return Q14(c.v, sc, a, b) })
	}
}

// TestQ14CapAndParallelEdges runs Q14 where a reaches b through two full
// layers of 20 persons each, with the knows edge from a to the first
// person of layer one doubled: 21 × 20 = 420 shortest paths, of which the
// cap keeps 256. The kept ones are those Q14's doc comment names: per meeting
// node, every way in from a times every way on to b, each walk taking knows
// edges in insertion order — here y0..y11 in full (21 each) and y12 through
// x0, x0, x1, x2.
func TestQ14CapAndParallelEdges(t *testing.T) {
	person := func(i int) ids.ID { return ids.Compose(ids.KindPerson, 700, uint32(i)) }
	a, b := person(0), person(1)
	var xs, ys []ids.ID
	for i := 0; i < 20; i++ {
		xs = append(xs, person(2+i))
		ys = append(ys, person(22+i))
	}
	st := store.New()
	tx := st.Begin()
	for _, p := range append([]ids.ID{a, b}, append(xs, ys...)...) {
		if err := tx.CreateNode(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	knows := func(p, q ids.ID) {
		if err := tx.AddKnows(p, q, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range xs {
		knows(a, x)
	}
	knows(a, xs[0]) // the parallel edge
	for _, x := range xs {
		for _, y := range ys {
			knows(x, y)
		}
	}
	for _, y := range ys {
		knows(y, b)
	}
	// x0 replies to a post of y0 (1.0 on step x0-y0); b replies to a
	// comment of y1 (0.5 on step y1-b).
	msg := func(id, creator, replyOf ids.ID) {
		if err := tx.CreateNode(id, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddEdge(id, store.EdgeHasCreator, creator, 1); err != nil {
			t.Fatal(err)
		}
		if replyOf != 0 {
			if err := tx.AddEdge(id, store.EdgeReplyOf, replyOf, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	post, c1 := ids.Compose(ids.KindPost, 700, 0), ids.Compose(ids.KindComment, 700, 1)
	msg(post, ys[0], 0)
	msg(ids.Compose(ids.KindComment, 700, 0), xs[0], post)
	msg(c1, ys[1], post)
	msg(ids.Compose(ids.KindComment, 700, 2), b, c1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	weight := func(p []ids.ID) float64 {
		w := 0.0
		if p[1] == xs[0] && p[2] == ys[0] {
			w += 1.0
		}
		if p[2] == ys[1] {
			w += 0.5
		}
		return w
	}
	var txRows []Q14Row
	st.View(func(tx *store.Txn) { txRows = Q14(tx, NewScratch(), a, b) })
	if len(txRows) != q14PathCap {
		t.Fatalf("Q14 returned %d rows, want the cap %d", len(txRows), q14PathCap)
	}
	perY := map[ids.ID]int{}
	dups := 0
	for i, row := range txRows {
		p := row.Path
		if len(p) != 4 || p[0] != a || p[3] != b || !slices.Contains(xs, p[1]) || !slices.Contains(ys, p[2]) {
			t.Fatalf("row %d: %v is not a shortest path from a to b", i, p)
		}
		if row.Weight != weight(p) {
			t.Fatalf("row %d: %v weighs %v, want %v", i, p, row.Weight, weight(p))
		}
		if i > 0 {
			prev := txRows[i-1]
			if prev.Weight < row.Weight || (prev.Weight == row.Weight && slices.Compare(prev.Path, p) > 0) {
				t.Fatalf("rows %d and %d out of order", i-1, i)
			}
			if slices.Equal(prev.Path, p) {
				if p[1] != xs[0] {
					t.Fatalf("row %d repeats %v, which does not use the doubled edge", i, p)
				}
				dups++
			}
		}
		perY[p[2]]++
	}
	for j, y := range ys {
		want := 0
		switch {
		case j < 12:
			want = 21
		case j == 12:
			want = 4
		}
		if perY[y] != want {
			t.Fatalf("%d kept paths through y%d, want %d", perY[y], j, want)
		}
	}
	if dups != 13 {
		t.Fatalf("%d repeated rows, want 13 (one per kept meeting node through x0)", dups)
	}
	sc := NewScratch()
	for i := 0; i < 2; i++ {
		if got := Q14(st.CurrentView(), sc, a, b); !rowsEqual(t, got, txRows) {
			t.Fatalf("view rows differ from txn rows (run %d)", i)
		}
	}
}
