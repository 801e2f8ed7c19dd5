package query

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// roundTripQueries is a sample of well-formed queries across the whole
// grammar; the canonical-print fixpoint and planner determinism tests both
// range over it (the fuzz corpus seeds overlap deliberately).
var roundTripQueries = []string{
	`match ?p : Person return ?p`,
	`match ?p : Person return count(*)`,
	`match ?p : Person where ?p.firstName = "Ada" return ?p, ?p.lastName order by ?p.lastName asc, ?p asc`,
	`match $person -knows-> ?f return ?f`,
	`match $person -knows-> ?f @ ?d return ?f, ?d order by ?d desc limit 5`,
	`match $person -knows*1..3-> ?f @ ?dist where ?f.firstName = $name return ?f, ?dist, ?f.lastName order by ?dist asc, ?f.lastName asc, ?f asc limit 20`,
	`match $person -knows-> ?f, ?m -hasCreator-> ?f @ ?d where ?d <= $maxDate return ?m, ?f, ?d order by ?d desc, ?m asc limit 20`,
	`match ?m -hasCreator-> $person, ?c -replyOf-> ?m @ ?d, ?c -hasCreator-> ?r return ?c, ?r, ?d order by ?d desc, ?c asc limit 20`,
	`match ?f : Forum, ?f -hasMember-> $person @ ?j return ?f, ?j`,
	`match ?m -hasCreator-> $person return sum(?m.length)`,
	`match ?t : Tag, ?m -hasTag-> ?t return ?t, count(?m) order by count(?m) desc, ?t asc limit 5`,
	`match ?a -knows-> ?b @ ?d where ?d >= 0, ?a != ?b return count(*)`,
	`match ?c -replyOf*1..4-> ?m, ?m -hasCreator-> $person return ?c, ?m limit 100`,
	`match 42 -knows-> ?f return ?f`,
	`match ?p : Person where ?p.birthday < -5 return count(*)`,
	`match ?p : Person where ?p.lastName > "L\"2\\x" return ?p limit 1`,
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	for _, src := range roundTripQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse of canonical %q: %v", s1, err)
		}
		if s2 := q2.String(); s1 != s2 {
			t.Fatalf("canonical form is not a fixpoint:\n  first:  %s\n  second: %s", s1, s2)
		}
	}
	// The registry texts must round-trip too.
	for i := range Registry {
		q, err := Parse(Registry[i].Text)
		if err != nil {
			t.Fatalf("registry %s does not parse: %v", Registry[i].Name, err)
		}
		if _, err := Parse(q.String()); err != nil {
			t.Fatalf("registry %s canonical form does not reparse: %v", Registry[i].Name, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		``,
		`match`,
		`match ?p : Person`,              // missing return
		`match ?p : Nope return ?p`,      // unknown kind
		`match ?p -flies-> ?q return ?p`, // unknown edge type
		`match ?p -knows-> ?q return ?r`, // unbound return variable
		`match ?p -knows-> ?q where ?z = 1 return ?p`,               // unbound filter variable
		`match ?p -knows*3..1-> ?q return ?p`,                       // inverted hop range
		`match ?p -knows*0..2-> ?q return ?p`,                       // zero min hops
		`match ?p -knows*1..99-> ?q return ?p`,                      // hops over MaxHops
		`match ?p -knows-> ?q return ?p limit 0`,                    // zero limit
		`match ?p -knows-> ?q return ?p limit 9999999`,              // limit over MaxLimit
		`match ?p -knows-> ?q return ?p order by ?q`,                // order key not returned
		`match ?p -knows-> ?p2 @ ?d, ?p -likes-> ?m @ ?d return ?m`, // scalar reuse
		`match ?d -knows-> ?x @ ?d return ?x`,                       // node var reused as scalar
		`match ?p -knows-> ?q where ?d.firstName = 1 return ?p`,     // prop on undeclared var
		`match ?p -knows-> ?q return sum(*)`,                        // sum(*) is not a thing
		`match ?p -knows-> ?q return ?p order by count(*) asc`,      // order key not a return item
		`match ?p : Person return ?p garbage`,                       // trailing tokens
		`match ?p : Person return ?p limit`,                         // missing limit value
		`match ?p : Person where ?p.firstName = "unterminated return ?p`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
	// Oversized input is rejected before lexing.
	big := make([]byte, MaxQueryLen+1)
	for i := range big {
		big[i] = 'a'
	}
	if _, err := Parse(string(big)); err == nil {
		t.Error("oversized query unexpectedly parsed")
	}
}

// TestRegistryPlanShapes pins the exact plans of the declarative Q1/Q2/Q8:
// constant-rooted expansions, no scans, filters attached as soon as their
// variables bind. A change here is a planner behaviour change.
func TestRegistryPlanShapes(t *testing.T) {
	want := map[string]string{
		"Q1": "1. bfs-out $person -knows*1..3-> ?f @ ?dist\n" +
			"2. filter ?f.firstName = $name\n" +
			"3. sink return ?f, ?dist, ?f.lastName order by ?dist asc, ?f.lastName asc, ?f asc limit 20\n",
		"Q2": "1. expand-out $person -knows-> ?f\n" +
			"2. expand-in ?m -hasCreator-> ?f @ ?d\n" +
			"3. filter ?d <= $maxDate\n" +
			"4. sink return ?m, ?f, ?d order by ?d desc, ?m asc limit 20\n",
		"Q8": "1. expand-in ?m -hasCreator-> $person\n" +
			"2. expand-in ?c -replyOf-> ?m @ ?d\n" +
			"3. expand-out ?c -hasCreator-> ?r\n" +
			"4. sink return ?c, ?r, ?d order by ?d desc, ?c asc limit 20\n",
	}
	for name, exp := range want {
		spec := Lookup(name)
		if spec == nil {
			t.Fatalf("registry is missing %s", name)
		}
		if got := spec.Plan().String(); got != exp {
			t.Errorf("%s plan:\n%swant:\n%s", name, got, exp)
		}
	}
}

// tinyGraph builds a small hand-checkable store:
//
//	p1 -knows- p2 -knows- p3 -knows- p4   (symmetric, stamps 10/20/30)
//	m1 (post, creator p2, len 5), m2 (post, creator p3, len 7)
//	c1 (comment, replyOf m1 @150, creator p3, len 2)
func tinyGraph(t *testing.T) (*store.Store, map[string]ids.ID) {
	t.Helper()
	st := store.New()
	n := map[string]ids.ID{
		"p1": ids.Compose(ids.KindPerson, 0, 1),
		"p2": ids.Compose(ids.KindPerson, 0, 2),
		"p3": ids.Compose(ids.KindPerson, 0, 3),
		"p4": ids.Compose(ids.KindPerson, 0, 4),
		"m1": ids.Compose(ids.KindPost, 1, 1),
		"m2": ids.Compose(ids.KindPost, 1, 2),
		"c1": ids.Compose(ids.KindComment, 2, 1),
	}
	tx := st.Begin()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tx.CreateNode(n["p1"], store.Props{store.NewProp(store.PropFirstName, store.String("ada")), store.NewProp(store.PropLastName, store.String("lovelace"))}))
	must(tx.CreateNode(n["p2"], store.Props{store.NewProp(store.PropFirstName, store.String("bob")), store.NewProp(store.PropLastName, store.String("babbage"))}))
	must(tx.CreateNode(n["p3"], store.Props{store.NewProp(store.PropFirstName, store.String("ada")), store.NewProp(store.PropLastName, store.String("noether"))}))
	must(tx.CreateNode(n["p4"], store.Props{store.NewProp(store.PropFirstName, store.String("eve")), store.NewProp(store.PropLastName, store.String("curie"))}))
	must(tx.CreateNode(n["m1"], store.Props{store.NewProp(store.PropLength, store.Int64(5))}))
	must(tx.CreateNode(n["m2"], store.Props{store.NewProp(store.PropLength, store.Int64(7))}))
	must(tx.CreateNode(n["c1"], store.Props{store.NewProp(store.PropLength, store.Int64(2))}))
	must(tx.AddKnows(n["p1"], n["p2"], 10))
	must(tx.AddKnows(n["p2"], n["p3"], 20))
	must(tx.AddKnows(n["p3"], n["p4"], 30))
	must(tx.AddEdge(n["m1"], store.EdgeHasCreator, n["p2"], 100))
	must(tx.AddEdge(n["m2"], store.EdgeHasCreator, n["p3"], 200))
	must(tx.AddEdge(n["c1"], store.EdgeReplyOf, n["m1"], 150))
	must(tx.AddEdge(n["c1"], store.EdgeHasCreator, n["p3"], 150))
	must(tx.Commit())
	return st, n
}

func iv(id ids.ID) store.Value            { return store.Int64(int64(uint64(id))) }
func nv(i int64) store.Value              { return store.Int64(i) }
func sv(s string) store.Value             { return store.String(s) }
func row(vs ...store.Value) []store.Value { return vs }

// runBoth compiles text and executes it on the txn and view paths,
// asserting both agree, and returns the rows.
func runBoth(t *testing.T, st *store.Store, text string, params Params) [][]store.Value {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatalf("Compile(%q): %v", text, err)
	}
	v := st.CurrentView()
	vres, err := runView(v, NewScratch(), p, params)
	if err != nil {
		t.Fatalf("view run of %q: %v", text, err)
	}
	var tres *Result
	st.View(func(tx *store.Txn) {
		tres, err = runTxn(tx, NewScratch(), p, params)
	})
	if err != nil {
		t.Fatalf("txn run of %q: %v", text, err)
	}
	if !reflect.DeepEqual(vres.Rows, tres.Rows) {
		t.Fatalf("txn/view disagree on %q:\nview:\n%stxn:\n%s", text, vres, tres)
	}
	return vres.Rows
}

func TestExecTinyGraph(t *testing.T) {
	st, n := tinyGraph(t)
	cases := []struct {
		text   string
		params Params
		want   [][]store.Value
	}{
		{
			`match $p -knows-> ?f return ?f`,
			Params{"p": iv(n["p1"])},
			[][]store.Value{row(iv(n["p2"]))},
		},
		{
			// Minimal hop distances from p1 along the chain.
			`match $p -knows*1..3-> ?f @ ?d return ?f, ?d order by ?d asc, ?f asc`,
			Params{"p": iv(n["p1"])},
			[][]store.Value{row(iv(n["p2"]), nv(1)), row(iv(n["p3"]), nv(2)), row(iv(n["p4"]), nv(3))},
		},
		{
			// Against the arrow: a knows edge is an Out entry at both
			// ends and in no In row, and still has p2 at its head.
			`match ?f -knows-> $p @ ?d return ?f, ?d order by ?f asc`,
			Params{"p": iv(n["p2"])},
			[][]store.Value{row(iv(n["p1"]), nv(10)), row(iv(n["p3"]), nv(20))},
		},
		{
			`match ?f -knows*1..2-> $p return ?f`,
			Params{"p": iv(n["p1"])},
			[][]store.Value{row(iv(n["p2"])), row(iv(n["p3"]))},
		},
		{
			// min hops excludes the 1-hop neighbour.
			`match $p -knows*2..3-> ?f return ?f`,
			Params{"p": iv(n["p1"])},
			[][]store.Value{row(iv(n["p3"])), row(iv(n["p4"]))},
		},
		{
			// Kind scan + string filter.
			`match ?p : Person where ?p.firstName = "ada" return ?p, ?p.lastName order by ?p asc`,
			nil,
			[][]store.Value{row(iv(n["p1"]), sv("lovelace")), row(iv(n["p3"]), sv("noether"))},
		},
		{
			// Grouped aggregation: messages (posts + comment) per creator.
			`match ?m -hasCreator-> ?p return ?p, count(?m), sum(?m.length) order by ?p asc`,
			nil,
			[][]store.Value{row(iv(n["p2"]), nv(1), nv(5)), row(iv(n["p3"]), nv(2), nv(9))},
		},
		{
			// Scalar binding + desc order + limit over the symmetric knows
			// edges (each friendship appears in both directions).
			`match ?a -knows-> ?b @ ?d return ?d, ?a, ?b order by ?d desc, ?a asc limit 3`,
			nil,
			[][]store.Value{
				row(nv(30), iv(n["p3"]), iv(n["p4"])),
				row(nv(30), iv(n["p4"]), iv(n["p3"])),
				row(nv(20), iv(n["p2"]), iv(n["p3"])),
			},
		},
		{
			// Bound-bound edge check (both endpoints are parameters).
			`match $a -knows-> $b @ ?d return ?d`,
			Params{"a": iv(n["p2"]), "b": iv(n["p3"])},
			[][]store.Value{row(nv(20))},
		},
		{
			// Cross-component: a scan rooted alongside an expansion.
			`match ?m -replyOf-> ?parent, ?p : Person where ?p.firstName = "eve" return ?m, ?parent, ?p`,
			nil,
			[][]store.Value{row(iv(n["c1"]), iv(n["m1"]), iv(n["p4"]))},
		},
		{
			// Aggregate over an empty match produces no rows.
			`match $p -knows-> ?f where ?f = 12345 return count(*)`,
			Params{"p": iv(n["p1"])},
			[][]store.Value{},
		},
		{
			// count(*) without grouping keys: one row for a non-empty match.
			`match ?p : Person return count(*)`,
			nil,
			[][]store.Value{row(nv(4))},
		},
	}
	for _, c := range cases {
		got := runBoth(t, st, c.text, c.params)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %#v\nwant %#v", c.text, got, c.want)
		}
	}
}

func TestMissingAndMistypedParams(t *testing.T) {
	st, n := tinyGraph(t)
	q, err := Parse(`match $p -knows-> ?f return ?f`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	v := st.CurrentView()
	if _, err := runView(v, NewScratch(), p, nil); err == nil {
		t.Error("missing parameter not rejected")
	}
	if _, err := runView(v, NewScratch(), p, Params{"p": sv("ada")}); err == nil {
		t.Error("string parameter as node endpoint not rejected")
	}
	if _, err := runView(v, NewScratch(), p, Params{"p": iv(n["p1"])}); err != nil {
		t.Errorf("valid parameters rejected: %v", err)
	}
}

// TestScratchReuse runs different plans, paths and eras through one
// scratch: the generation-stamped dedup state must never leak matches across
// runs, and an era bump (fresh ordinals) must not confuse the view-path
// arrays.
func TestScratchReuse(t *testing.T) {
	st, n := tinyGraph(t)
	sc := NewScratch()
	texts := []string{
		`match $p -knows*1..3-> ?f @ ?d return ?f, ?d order by ?d asc, ?f asc`,
		`match ?m -hasCreator-> ?p return ?p, count(?m) order by ?p asc`,
		`match $p -knows-> ?f return ?f`,
	}
	params := Params{"p": iv(n["p1"])}
	baseline := make([][][]store.Value, len(texts))
	plans := make([]*Plan, len(texts))
	for i, text := range texts {
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		plans[i], err = Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runView(st.CurrentView(), sc, plans[i], params)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res.Rows
	}
	// Force a full recompaction (era bump, reassigned ordinals) and grow
	// the graph a little.
	era0 := st.CurrentView().Era()
	st.SetViewCompactThreshold(0)
	tx := st.Begin()
	p5 := ids.Compose(ids.KindPerson, 0, 5)
	if err := tx.CreateNode(p5, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.CurrentView().Era() == era0 {
		t.Fatal("expected a forced era bump")
	}
	for round := 0; round < 3; round++ {
		for i := range texts {
			res, err := runView(st.CurrentView(), sc, plans[i], params)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rows, baseline[i]) {
				t.Fatalf("round %d query %d drifted after era bump:\n got %#v\nwant %#v", round, i, res.Rows, baseline[i])
			}
			// Interleave the MVCC path through the same scratch.
			st.View(func(tx *store.Txn) {
				res, err = runTxn(tx, sc, plans[i], params)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rows, baseline[i]) {
				t.Fatalf("round %d query %d txn path drifted:\n got %#v\nwant %#v", round, i, res.Rows, baseline[i])
			}
		}
	}
}

// TestRunViewCtxCancel pins cooperative cancellation: a canceled context
// unwinds the executor's scan loops as store.ErrQueryCanceled.
func TestRunViewCtxCancel(t *testing.T) {
	st := store.New()
	tx := st.Begin()
	var prev ids.ID
	for i := 1; i <= 400; i++ {
		id := ids.Compose(ids.KindPerson, int64(i/100), uint32(i%100))
		if err := tx.CreateNode(id, nil); err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := tx.AddKnows(prev, id, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`match ?a -knows*1..8-> ?b return count(*)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunViewCtx(ctx, st.CurrentView(), NewScratch(), p, nil); !errors.Is(err, store.ErrQueryCanceled) {
		t.Fatalf("canceled run returned %v, want ErrQueryCanceled", err)
	}
	// The same scratch must still work for a live context afterwards.
	res, err := RunViewCtx(context.Background(), st.CurrentView(), NewScratch(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() == 0 {
		t.Fatalf("post-cancel run returned %v", res)
	}
}

// TestConcurrentViewExecution shares one frozen view between goroutines,
// each with its own scratch — the supported concurrency pattern. Run under
// -race this pins that executor state never aliases across goroutines.
func TestConcurrentViewExecution(t *testing.T) {
	st, n := tinyGraph(t)
	v := st.CurrentView()
	params := Params{"p": iv(n["p1"])}
	spec := Lookup("Q1")
	q1params := Params{"person": iv(n["p1"]), "name": sv("ada")}
	q, err := Parse(`match $p -knows*1..3-> ?f @ ?d return ?f, ?d order by ?d asc, ?f asc`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runView(v, NewScratch(), p, params)
	if err != nil {
		t.Fatal(err)
	}
	wantQ1, err := spec.RunView(v, NewScratch(), q1params)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for i := 0; i < 200; i++ {
				res, err := runView(v, sc, p, params)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- errors.New("concurrent run diverged")
					return
				}
				res, err = spec.RunView(v, sc, q1params)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, wantQ1.Rows) {
					errs <- errors.New("concurrent Q1 run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAggGroupsChainOnHashCollision points a second group key at the
// first key's group, as a 64-bit hash collision would: the sink must check
// the stored key, open a second group chained behind the first, and fold
// every later row into its own group.
func TestAggGroupsChainOnHashCollision(t *testing.T) {
	q, err := Parse(`match ?p : Person return ?p, count(*)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var s sink
	s.init(p, NewScratch())
	a, b := []store.Value{store.Int64(1), {}}, []store.Value{store.Int64(2), {}}
	if err := s.add(q, a); err != nil {
		t.Fatal(err)
	}
	head, _ := s.groups.At(groupHash(q, b))
	*head = 0 // b's hash now leads to a's group
	for _, row := range [][]store.Value{b, a, b, b} {
		if err := s.add(q, row); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]store.Value{{store.Int64(1), store.Int64(2)}, {store.Int64(2), store.Int64(3)}}
	if got := s.finalize().Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}
