package store

import (
	"errors"
	"sync"
	"testing"

	"ldbcsnb/internal/ids"
)

func personID(n uint32) ids.ID { return ids.Compose(ids.KindPerson, int64(n), 0) }
func postID(n uint32) ids.ID   { return ids.Compose(ids.KindPost, int64(n), 0) }

func TestCreateAndRead(t *testing.T) {
	s := New()
	tx := s.Begin()
	id := personID(1)
	if err := tx.CreateNode(id, Props{NewProp(PropFirstName, String("Karl")), NewProp(PropCreationDate, Int64(100))}); err != nil {
		t.Fatal(err)
	}
	// A write transaction reads its snapshot: its own writes show at commit.
	if tx.Exists(id) || !tx.Prop(id, PropFirstName).IsZero() {
		t.Fatal("own write visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Txn) {
		if !tx.Exists(id) {
			t.Fatal("node missing after commit")
		}
		if got := tx.Prop(id, PropFirstName).Str(); got != "Karl" {
			t.Fatalf("got %q", got)
		}
		if got := tx.Prop(id, PropCreationDate).Int(); got != 100 {
			t.Fatalf("got %d", got)
		}
		if !tx.Prop(id, PropContent).IsZero() {
			t.Fatal("absent property should be zero")
		}
	})
}

func TestSnapshotIsolationInvisibleUntilCommit(t *testing.T) {
	s := New()
	id := personID(2)
	reader := s.Begin() // snapshot before the write
	w := s.Begin()
	if err := w.CreateNode(id, Props{NewProp(PropFirstName, String("Hans"))}); err != nil {
		t.Fatal(err)
	}
	if reader.Exists(id) {
		t.Fatal("uncommitted node visible")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if reader.Exists(id) {
		t.Fatal("node visible to older snapshot")
	}
	late := s.Begin()
	if !late.Exists(id) {
		t.Fatal("node invisible to newer snapshot")
	}
}

func TestDuplicateCreateConflict(t *testing.T) {
	s := New()
	id := personID(3)
	t1, t2 := s.Begin(), s.Begin()
	if err := t1.CreateNode(id, nil); err != nil {
		t.Fatal(err)
	}
	if err := t2.CreateNode(id, nil); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
	if s.Aborts() != 1 {
		t.Fatalf("aborts = %d", s.Aborts())
	}
}

func TestEdgesDirectedAndReverse(t *testing.T) {
	s := New()
	p, m := personID(6), postID(1)
	tx := s.Begin()
	tx.CreateNode(p, nil)
	tx.CreateNode(m, nil)
	tx.AddEdge(m, EdgeHasCreator, p, 777)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Txn) {
		out := tx.Out(m, EdgeHasCreator)
		if len(out) != 1 || out[0].To != p || out[0].Stamp != 777 {
			t.Fatalf("out = %v", out)
		}
		in := tx.In(p, EdgeHasCreator)
		if len(in) != 1 || in[0].To != m {
			t.Fatalf("in = %v", in)
		}
		if tx.OutDegree(m, EdgeHasCreator) != 1 {
			t.Fatal("OutDegree")
		}
	})
}

func TestKnowsSymmetric(t *testing.T) {
	s := New()
	a, b := personID(7), personID(8)
	tx := s.Begin()
	tx.CreateNode(a, nil)
	tx.CreateNode(b, nil)
	tx.AddKnows(a, b, 123)
	// Neither direction shows before commit: reads see the snapshot only.
	if tx.OutDegree(a, EdgeKnows) != 0 || tx.OutDegree(b, EdgeKnows) != 0 {
		t.Fatal("own knows edges visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Txn) {
		oa, ob := tx.Out(a, EdgeKnows), tx.Out(b, EdgeKnows)
		if len(oa) != 1 || oa[0].To != b || oa[0].Stamp != 123 {
			t.Fatalf("a->b = %v", oa)
		}
		if len(ob) != 1 || ob[0].To != a {
			t.Fatalf("b->a = %v", ob)
		}
	})
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	s := New()
	s.View(func(tx *Txn) {
		if err := tx.CreateNode(personID(9), nil); err == nil {
			t.Fatal("read-only create allowed")
		}
		if err := tx.AddEdge(personID(9), EdgeKnows, personID(10), 0); err == nil {
			t.Fatal("read-only edge allowed")
		}
	})
}

// A view keeps one scan list per kind, so a node of a kind past the last
// one is rejected at creation.
func TestCreateNodeRejectsInvalidKind(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.CreateNode(ids.Compose(ids.KindLimit, 1, 0), nil); err == nil {
		t.Fatal("node of an invalid kind created")
	}
	if err := tx.CreateNode(ids.Compose(ids.KindPhoto, 1, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestNodesOfKindVisibility(t *testing.T) {
	s := New()
	for i := uint32(0); i < 10; i++ {
		tx := s.Begin()
		tx.CreateNode(personID(100+i), nil)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	mid := s.Begin()
	tx := s.Begin()
	tx.CreateNode(personID(200), nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := len(mid.NodesOfKind(ids.KindPerson)); got != 10 {
		t.Fatalf("mid snapshot sees %d persons", got)
	}
	s.View(func(tx *Txn) {
		if got := len(tx.NodesOfKind(ids.KindPerson)); got != 11 {
			t.Fatalf("late snapshot sees %d persons", got)
		}
	})
}

func TestConcurrentInsertersAndReaders(t *testing.T) {
	s := New()
	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin()
				id := ids.Compose(ids.KindPost, int64(i), uint32(w))
				tx.CreateNode(id, Props{NewProp(PropCreationDate, Int64(int64(i)))})
				if w > 0 {
					tx.AddEdge(id, EdgeHasCreator, personID(uint32(w)), int64(i))
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.View(func(tx *Txn) {
					// Snapshot must be internally consistent: every listed
					// node must be visible.
					for _, id := range tx.NodesOfKind(ids.KindPost) {
						if !tx.Exists(id) {
							t.Error("listed node invisible")
							return
						}
					}
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	s.View(func(tx *Txn) {
		if got := len(tx.NodesOfKind(ids.KindPost)); got != writers*perWriter {
			t.Fatalf("got %d posts, want %d", got, writers*perWriter)
		}
	})
	if s.Commits() < writers*perWriter {
		t.Fatalf("commits = %d", s.Commits())
	}
}

func TestAbort(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.CreateNode(personID(20), nil)
	tx.Abort()
	s.View(func(v *Txn) {
		if v.Exists(personID(20)) {
			t.Fatal("aborted write visible")
		}
	})
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after abort should fail")
	}
}

func TestEmptyCommit(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.LastCommit() != 0 {
		t.Fatal("empty commit advanced the clock")
	}
}

// An ID created twice in one transaction fails its commit, which counts as
// an abort, installs nothing and logs no redo record.
func TestCreateTwiceInTxn(t *testing.T) {
	p, _, err := Open(t.TempDir(), manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Store
	tx := s.Begin()
	for _, id := range []ids.ID{personID(21), personID(22), personID(21)} {
		if err := tx.CreateNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.AddEdge(personID(22), EdgeKnows, personID(23), 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
	if s.Aborts() != 1 || s.Commits() != 0 || s.LastCommit() != 0 {
		t.Fatalf("aborts %d, commits %d, clock %d; want 1, 0, 0", s.Aborts(), s.Commits(), s.LastCommit())
	}
	s.View(func(r *Txn) {
		for _, id := range []ids.ID{personID(21), personID(22), personID(23)} {
			if r.Exists(id) {
				t.Errorf("%v installed by a failed commit", id)
			}
		}
	})
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.WALBytes != 0 || st.BatchedRecords != 0 {
		t.Fatalf("failed commit logged: %+v", st)
	}
}

// A write transaction reads its snapshot and nothing else: none of its own
// creations or edges shows before commit, on any read. After commit a Txn,
// a refreshed view and a compacted one see the node and both directions of
// every edge.
func TestWriteTxnReadsItsSnapshot(t *testing.T) {
	s := New()
	base := s.Begin()
	if err := base.CreateNode(personID(40), nil); err != nil {
		t.Fatal(err)
	}
	commitOrFatal(t, base)
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("first view: %v", ev)
	}

	a, b, m := personID(40), personID(41), postID(40)
	tx := s.Begin()
	for _, id := range []ids.ID{b, m} {
		if err := tx.CreateNode(id, Props{NewProp(PropCreationDate, Int64(1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.AddEdge(a, EdgeLikes, m, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddKnows(a, b, 6); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ids.ID{b, m} {
		if _, ok := tx.Props(id); ok || tx.Exists(id) || !tx.Prop(id, PropCreationDate).IsZero() {
			t.Errorf("own creation %v visible before commit", id)
		}
	}
	if got := tx.NodesOfKind(ids.KindPerson); len(got) != 1 || len(tx.NodesOfKind(ids.KindPost)) != 0 {
		t.Errorf("own creations in NodesOfKind before commit: persons %v", got)
	}
	for _, r := range []struct {
		id ids.ID
		et EdgeType
	}{{a, EdgeLikes}, {m, EdgeLikes}, {a, EdgeKnows}, {b, EdgeKnows}} {
		if len(tx.Out(r.id, r.et)) != 0 || len(tx.In(r.id, r.et)) != 0 ||
			tx.OutDegree(r.id, r.et) != 0 || tx.InDegree(r.id, r.et) != 0 {
			t.Errorf("own %v edge at %v visible before commit", r.et, r.id)
		}
	}
	commitOrFatal(t, tx)

	refreshed, ev := s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("view after commit: %v, want a refresh", ev)
	}
	check := func(name string, r Reader) {
		t.Helper()
		for _, id := range []ids.ID{b, m} {
			if !r.Exists(id) || r.Prop(id, PropCreationDate).Int() != 1 {
				t.Errorf("%s: created %v missing", name, id)
			}
		}
		if len(r.NodesOfKind(ids.KindPerson)) != 2 || len(r.NodesOfKind(ids.KindPost)) != 1 {
			t.Errorf("%s: kind lists %v %v", name, r.NodesOfKind(ids.KindPerson), r.NodesOfKind(ids.KindPost))
		}
		want := map[string][]Edge{
			"likes out a": {{To: m, Stamp: 5}}, "likes in m": {{To: a, Stamp: 5}},
			"knows out a": {{To: b, Stamp: 6}}, "knows out b": {{To: a, Stamp: 6}},
		}
		got := map[string][]Edge{
			"likes out a": r.Out(a, EdgeLikes), "likes in m": r.In(m, EdgeLikes),
			"knows out a": r.Out(a, EdgeKnows), "knows out b": r.Out(b, EdgeKnows),
		}
		for k, w := range want {
			if len(got[k]) != 1 || got[k][0] != w[0] {
				t.Errorf("%s: %s = %v, want %v", name, k, got[k], w)
			}
		}
		if r.InDegree(m, EdgeLikes) != 1 || r.OutDegree(a, EdgeLikes) != 1 || r.InDegree(a, EdgeLikes) != 0 {
			t.Errorf("%s: likes degrees wrong", name)
		}
	}
	s.View(func(r *Txn) { check("txn", r) })
	check("refreshed view", refreshed)
	check("ViewAt", s.ViewAt(s.LastCommit()))
}

// A finished transaction's buffers are its recorded write set: writes after
// Commit or Abort fail instead of extending it.
func TestFinishedTxnRejectsWrites(t *testing.T) {
	s := New()
	s.CurrentView() // record deltas, which alias the committed buffers
	committed, aborted := s.Begin(), s.Begin()
	if err := committed.CreateNode(personID(50), nil); err != nil {
		t.Fatal(err)
	}
	commitOrFatal(t, committed)
	aborted.Abort()
	for name, tx := range map[string]*Txn{"committed": committed, "aborted": aborted} {
		if err := tx.CreateNode(personID(51), nil); err == nil {
			t.Errorf("%s: CreateNode accepted", name)
		}
		if err := tx.AddEdge(personID(50), EdgeLikes, postID(50), 0); err == nil {
			t.Errorf("%s: AddEdge accepted", name)
		}
		if err := tx.AddKnows(personID(50), personID(52), 0); err == nil {
			t.Errorf("%s: AddKnows accepted", name)
		}
	}
	v := s.CurrentView()
	if v.Exists(personID(51)) || v.OutDegree(personID(50), EdgeLikes) != 0 || v.NumNodes() != 1 {
		t.Fatal("a write after commit reached the view")
	}
}

// commitAllocs is what an AddPost-shaped commit (one CreateNode, four
// AddEdge) allocates on a store that records view deltas: the node buffer,
// the edge buffer (three growths on the way to four), the CommitDelta, the
// node record, its row table and the post's four rows. The Txn itself stays
// on the caller's stack, and the peers' rows and the commit log grow
// amortised.
const commitAllocs = 11

func TestCommitAllocs(t *testing.T) {
	s := New()
	person, forum := personID(60), ids.Compose(ids.KindForum, 60, 0)
	place, tag := ids.Compose(ids.KindPlace, 60, 0), ids.Compose(ids.KindTag, 60, 0)
	tx := s.Begin()
	for _, id := range []ids.ID{person, forum, place, tag} {
		if err := tx.CreateNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	commitOrFatal(t, tx)
	s.CurrentView() // from here on the commit log keeps the write sets for the view
	props := Props{NewProp(PropContent, String("post")), NewProp(PropCreationDate, Int64(1))}
	n := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		post := postID(60 + n)
		tx := s.Begin()
		tx.CreateNode(post, props)
		tx.AddEdge(post, EdgeHasCreator, person, 1)
		tx.AddEdge(forum, EdgeContainerOf, post, 1)
		tx.AddEdge(post, EdgeIsLocatedIn, place, 0)
		tx.AddEdge(post, EdgeHasTag, tag, 0)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > commitAllocs {
		t.Fatalf("AddPost-shaped commit allocates %.0f times, want at most %d", allocs, commitAllocs)
	}
}

func TestStats(t *testing.T) {
	s := New()
	tx := s.Begin()
	p := personID(30)
	tx.CreateNode(p, Props{NewProp(PropFirstName, String("Karl"))})
	for i := uint32(0); i < 20; i++ {
		m := postID(300 + i)
		tx.CreateNode(m, Props{NewProp(PropContent, String("hello world, this is content")), NewProp(PropCreationDate, Int64(int64(i)))})
		tx.AddEdge(m, EdgeHasCreator, p, int64(i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.ComputeStats()
	if st.Nodes != 21 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	if st.Edges != 20 {
		t.Fatalf("edges = %d", st.Edges)
	}
	if len(st.Tables) == 0 {
		t.Fatal("no tables")
	}
	if st.Tables[0].Name != "Post" {
		t.Fatalf("largest table should be Post, got %s", st.Tables[0].Name)
	}
}

func TestPropsCopyIsolated(t *testing.T) {
	s := New()
	id := personID(40)
	tx := s.Begin()
	tx.CreateNode(id, Props{NewProp(PropFirstName, String("a"))})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Txn) {
		ps, ok := tx.Props(id)
		if !ok {
			t.Fatal("missing")
		}
		ps[0] = NewProp(PropFirstName, String("mutated"))
	})
	s.View(func(tx *Txn) {
		if got := tx.Prop(id, PropFirstName).Str(); got != "a" {
			t.Fatalf("caller mutation leaked into store: %q", got)
		}
	})
}
