package schema_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// The bulk load installs a dataset as one commit through the store's arena
// builder; before it, the same Add* calls ran in 2000-entity Txn commits.
// TestBulkMatchesCommits loads datasets both ways and requires the same
// graph: every node's properties, every (type, direction) row in order,
// the kind lists and the view built on top — and the same graph again after
// one more entry lands in every out-row, which writes into the slack a
// carved list keeps.

// loadCommits is the loader the arena builder replaced: each class in
// 2000-entity transactions, in the order Parts writes them.
func loadCommits(st *store.Store, d *schema.Dataset) error {
	commits := func(n int, add func(tx *store.Txn, i int) error) error {
		for lo := 0; lo < n; lo += 2000 {
			tx := st.Begin()
			for i := lo; i < min(lo+2000, n); i++ {
				if err := add(tx, i); err != nil {
					tx.Abort()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	return errors.Join(
		commits(len(d.Persons), func(tx *store.Txn, i int) error { return schema.AddPerson(tx, &d.Persons[i]) }),
		commits(len(d.Knows), func(tx *store.Txn, i int) error {
			return tx.AddKnows(d.Knows[i].A, d.Knows[i].B, d.Knows[i].CreationDate)
		}),
		commits(len(d.Forums), func(tx *store.Txn, i int) error { return schema.AddForum(tx, &d.Forums[i]) }),
		commits(len(d.Memberships), func(tx *store.Txn, i int) error {
			m := &d.Memberships[i]
			return tx.AddEdge(m.Forum, store.EdgeHasMember, m.Person, m.JoinDate)
		}),
		commits(len(d.Posts), func(tx *store.Txn, i int) error { return schema.AddPost(tx, &d.Posts[i]) }),
		commits(len(d.Comments), func(tx *store.Txn, i int) error { return schema.AddComment(tx, &d.Comments[i]) }),
		commits(len(d.Likes), func(tx *store.Txn, i int) error {
			l := &d.Likes[i]
			return tx.AddEdge(l.Person, store.EdgeLikes, l.Message, l.CreationDate)
		}),
	)
}

// randomDataset is a small network over the dictionary's dimensions with
// what the generator never emits: repeated and reversed knows pairs, a
// self-loop, repeated memberships, and a like of a message nobody creates
// (a bare endpoint). seed offsets every ID, so two of them load into one
// store.
func randomDataset(seed uint64) *schema.Dataset {
	r := xrand.New(seed)
	d := &schema.Dataset{}
	base := int64(seed) * 10000
	for i := 0; i < 5+r.Intn(30); i++ {
		p := schema.Person{
			ID:        ids.Compose(ids.KindPerson, base+int64(r.Intn(500)), uint32(i)),
			FirstName: []string{"Ada", "Bob", "Eve"}[r.Intn(3)], LastName: "L",
			Country: r.Intn(len(dict.Countries)), University: -1, Company: -1,
			Languages: []string{"en"}, Emails: []string{fmt.Sprintf("%d@x.org", i)},
			CreationDate: int64(i),
		}
		for range r.Intn(4) {
			p.Interests = append(p.Interests, r.Intn(len(dict.Tags)))
		}
		if r.Intn(2) == 0 {
			p.University, p.ClassYear = r.Intn(len(dict.Universities)), 2000+r.Intn(10)
		}
		if r.Intn(2) == 0 {
			p.Company, p.WorkFrom = r.Intn(len(dict.Companies)), 2000+r.Intn(10)
		}
		d.Persons = append(d.Persons, p)
	}
	person := func() ids.ID { return d.Persons[r.Intn(len(d.Persons))].ID }
	for i := 0; i < 3*len(d.Persons); i++ {
		k := schema.Knows{A: person(), B: person(), CreationDate: int64(i)}
		d.Knows = append(d.Knows, k)
		if r.Intn(4) == 0 {
			d.Knows = append(d.Knows, k, schema.Knows{A: k.B, B: k.A, CreationDate: int64(i)})
		}
	}
	self := person()
	d.Knows = append(d.Knows, schema.Knows{A: self, B: self, CreationDate: 7})
	for i := 0; i < 1+r.Intn(5); i++ {
		d.Forums = append(d.Forums, schema.Forum{
			ID: ids.Compose(ids.KindForum, base+int64(i), 0), Title: "f", Moderator: person(),
			Tags: []int{r.Intn(len(dict.Tags))},
		})
	}
	forum := func() ids.ID { return d.Forums[r.Intn(len(d.Forums))].ID }
	for i := 0; i < 2*len(d.Persons); i++ {
		d.Memberships = append(d.Memberships, schema.Membership{Forum: forum(), Person: person(), JoinDate: int64(i)})
	}
	var messages []ids.ID
	for i := 0; i < 40; i++ {
		p := schema.Post{
			ID: ids.Compose(ids.KindPost, base+int64(i), 0), Creator: person(), Forum: forum(),
			CreationDate: int64(i), Content: "c", Language: "en", Country: r.Intn(len(dict.Countries)),
			Tags: []int{r.Intn(len(dict.Tags)), r.Intn(len(dict.Tags))},
		}
		d.Posts = append(d.Posts, p)
		messages = append(messages, p.ID)
	}
	for i := 0; i < 60; i++ {
		c := schema.Comment{
			ID: ids.Compose(ids.KindComment, base+int64(i), 0), Creator: person(),
			ReplyOf: messages[r.Intn(len(messages))], CreationDate: int64(i), Content: "r",
			Country: r.Intn(len(dict.Countries)), Tags: []int{r.Intn(len(dict.Tags))},
		}
		d.Comments = append(d.Comments, c)
		messages = append(messages, c.ID)
	}
	for i := 0; i < 80; i++ {
		d.Likes = append(d.Likes, schema.Like{Person: person(), Message: messages[r.Intn(len(messages))], CreationDate: int64(i)})
	}
	d.Likes = append(d.Likes, schema.Like{Person: person(), Message: ids.Compose(ids.KindPost, base+9999, 9), CreationDate: 1})
	return d
}

// referenced lists every node ID a dataset creates or points at.
func referenced(d *schema.Dataset) []ids.ID {
	var out []ids.ID
	for _, p := range d.Persons {
		out = append(out, p.ID)
	}
	for _, f := range d.Forums {
		out = append(out, f.ID)
	}
	for _, p := range d.Posts {
		out = append(out, p.ID)
	}
	for _, c := range d.Comments {
		out = append(out, c.ID, c.ReplyOf)
	}
	for _, k := range d.Knows {
		out = append(out, k.A, k.B)
	}
	for _, m := range d.Memberships {
		out = append(out, m.Person)
	}
	for _, l := range d.Likes {
		out = append(out, l.Person, l.Message)
	}
	return out
}

var allEdgeTypes = func() []store.EdgeType {
	var out []store.EdgeType
	for t := store.EdgeKnows; t <= store.EdgeIsSubclassOf; t++ {
		out = append(out, t)
	}
	return out
}()

// assertSameGraph compares two stores read through a transaction at their
// clocks and through their current views: the kind lists in order, and for
// every probed node and every dimension its existence, properties and each
// (type, direction) row in order.
func assertSameGraph(t *testing.T, want, got *store.Store, probe []ids.ID) {
	t.Helper()
	wv, gv := want.CurrentView(), got.CurrentView()
	if wn, gn := wv.NumNodes(), gv.NumNodes(); wn != gn {
		t.Fatalf("view holds %d nodes, commit-loaded %d", gn, wn)
	}
	want.View(func(wtx *store.Txn) {
		got.View(func(gtx *store.Txn) {
			all := append([]ids.ID(nil), probe...)
			for k := ids.Kind(0); k < ids.KindLimit; k++ {
				if w, g := wtx.NodesOfKind(k), gtx.NodesOfKind(k); !reflect.DeepEqual(w, g) {
					t.Fatalf("kind %v lists diverge (order matters):\ncommits %v\nbulk    %v", k, w, g)
				}
				if w, g := wv.NodesOfKind(k), gv.NodesOfKind(k); !reflect.DeepEqual(w, g) {
					t.Fatalf("kind %v view lists diverge", k)
				}
				all = append(all, wtx.NodesOfKind(k)...)
			}
			slices.Sort(all)
			all = slices.Compact(all)
			for _, id := range all {
				if w, g := wtx.Exists(id), gtx.Exists(id); w != g || wv.Exists(id) != w || gv.Exists(id) != w {
					t.Fatalf("node %v: exists %v in the commit-loaded store, %v in the bulk-loaded one", id, w, g)
				}
				wp, _ := wtx.Props(id)
				gp, _ := gtx.Props(id)
				vp, _ := gv.Props(id)
				if !reflect.DeepEqual(wp, gp) || len(gp) > 0 && !reflect.DeepEqual(gp, vp) {
					t.Fatalf("node %v props diverge", id)
				}
				for _, et := range allEdgeTypes {
					for _, in := range []bool{false, true} {
						w, g, v := wtx.Out(id, et), gtx.Out(id, et), gv.Out(id, et)
						if in {
							w, g, v = wtx.In(id, et), gtx.In(id, et), gv.In(id, et)
						}
						if !reflect.DeepEqual(w, g) || len(g) != len(v) || len(v) > 0 && !reflect.DeepEqual(g, v) {
							t.Fatalf("node %v %v (in=%v) diverges:\ncommits %v\nbulk    %v\nview    %v", id, et, in, w, g, v)
						}
					}
				}
			}
		})
	})
}

// appendEverywhere commits one more entry into every out-row of every
// probed node: an append into the slack each bulk-carved list keeps.
func appendEverywhere(t *testing.T, st *store.Store, probe []ids.ID) {
	t.Helper()
	tx := st.Begin()
	for _, id := range probe {
		for _, et := range allEdgeTypes {
			if row := tx.Out(id, et); len(row) > 0 {
				if err := tx.AddEdge(id, et, row[0].To, -1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// bothWays loads each dataset into two stores holding the dimensions, one
// by commits and one by Parts and Store.Load, and compares them.
func bothWays(t *testing.T, workers int, ds ...*schema.Dataset) (want, got *store.Store, probe []ids.ID) {
	t.Helper()
	want, got = store.New(), store.New()
	for _, st := range []*store.Store{want, got} {
		if err := schema.LoadDimensions(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range ds {
		if err := loadCommits(want, d); err != nil {
			t.Fatal(err)
		}
		if err := schema.LoadParallel(got, d, workers); err != nil {
			t.Fatal(err)
		}
		probe = append(probe, referenced(d)...)
	}
	assertSameGraph(t, want, got, probe)
	appendEverywhere(t, want, probe)
	appendEverywhere(t, got, probe)
	assertSameGraph(t, want, got, probe)
	return want, got, probe
}

func TestBulkMatchesCommits(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		bothWays(t, 1, &schema.Dataset{})
	})
	t.Run("random", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			bothWays(t, 1+int(seed%3), randomDataset(seed))
		}
	})
	t.Run("into a loaded store", func(t *testing.T) {
		bothWays(t, 2, randomDataset(11), randomDataset(12))
	})
	t.Run("generated", func(t *testing.T) {
		if testing.Short() {
			t.Skip("generates and loads 250 persons twice")
		}
		out := datagen.Generate(datagen.Config{Seed: 7, Persons: 250, Events: true})
		bulk, updates := datagen.Split(out.Data, datagen.UpdateCut)
		want, got, probe := bothWays(t, 4, bulk)
		for i := range updates[:len(updates)/4] {
			if err := errors.Join(workload.ApplyUpdate(want, &updates[i]), workload.ApplyUpdate(got, &updates[i])); err != nil {
				t.Fatal(err)
			}
		}
		assertSameGraph(t, want, got, probe)
	})
}

// An ID created twice fails with ErrExists whichever way it loads, and a
// bulk load that fails installs nothing.
func TestBulkCreatedTwice(t *testing.T) {
	twice := randomDataset(21)
	twice.Persons = append(twice.Persons, twice.Persons[0])
	again := randomDataset(22)
	for name, ds := range map[string][]*schema.Dataset{
		"in one load":          {twice},
		"already in the store": {again, again},
	} {
		want, got := store.New(), store.New()
		var werr, gerr error
		for _, d := range ds {
			werr, gerr = loadCommits(want, d), schema.Load(got, d)
		}
		if !errors.Is(werr, store.ErrExists) || !errors.Is(gerr, store.ErrExists) {
			t.Fatalf("%s: commits returned %v, the bulk load %v; want ErrExists", name, werr, gerr)
		}
		wantClock := int64(len(ds) - 1)
		if got.LastCommit() != wantClock {
			t.Fatalf("%s: a failed bulk load moved the clock to %d, want %d", name, got.LastCommit(), wantClock)
		}
		if name == "in one load" && len(got.CurrentView().NodesOfKind(ids.KindPerson)) != 0 {
			t.Fatalf("%s: a failed bulk load installed nodes", name)
		}
	}
}
