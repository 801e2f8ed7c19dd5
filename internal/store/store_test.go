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
	// Own writes visible before commit.
	if got := tx.Prop(id, PropFirstName).Str(); got != "Karl" {
		t.Fatalf("own write invisible: %q", got)
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
	// Own-write overlay must show both directions pre-commit.
	if len(tx.Out(a, EdgeKnows)) != 1 || len(tx.Out(b, EdgeKnows)) != 1 {
		t.Fatal("own knows edges invisible")
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

func TestCreateTwiceInTxn(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.CreateNode(personID(21), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateNode(personID(21), nil); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
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
