package params

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/xrand"
)

// TestPCTablesMatchMapReference holds the dense-index builders to the
// map-based ones they replaced, kept below as the reference: every table
// and the 2-hop sizes must be deeply equal, rows in d.Persons order, at one
// worker and at GOMAXPROCS workers. Beside the generated dataset, seeded
// random datasets carry the shapes the generator does not produce:
// duplicate knows pairs and self-loops, a knows endpoint, a member and a
// creator absent from d.Persons, a friendless person, a forum without
// posts and posts in a forum nobody joined.
func TestPCTablesMatchMapReference(t *testing.T) {
	type set struct {
		name string
		d    *schema.Dataset
	}
	sets := []set{
		{"generated-250", datagen.Generate(datagen.Config{Seed: 3, Persons: 250, Workers: 2}).Data},
		{"empty", &schema.Dataset{}},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		sets = append(sets, set{fmt.Sprintf("random-%d", seed), randomDataset(seed)})
	}
	for _, s := range sets {
		name, d := s.name, s.d
		want := []any{refBuildQ2Table(d), refBuildQ5Table(d), refBuildQ9Table(d), refTwoHopSizes(d)}
		q2, q5, q9 := BuildPCTables(d)
		if got := []any{q2, q5, q9, TwoHopSizes(d)}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: BuildPCTables differs from the map reference", name)
		}
		if got := []any{BuildQ2Table(d), BuildQ5Table(d), BuildQ9Table(d)}; !reflect.DeepEqual(got, want[:3]) {
			t.Fatalf("%s: a single-table builder differs from the map reference", name)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			c := countPC(d, workers)
			sizes := make([]int, 0, len(c))
			for i := range c {
				sizes = append(sizes, c[i].env)
			}
			sort.Ints(sizes)
			got := []any{q2Table(d, c), q5Table(d, c), q9Table(d, c), sizes}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s, %d workers: table %d differs from the map reference:\n got %v\nwant %v",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// randomDataset builds a small dataset with every irregular shape the PC
// builders must count the way the map reference does. Its 200-400
// persons span several worker chunks.
func randomDataset(seed uint64) *schema.Dataset {
	r := xrand.New(seed)
	id := func(k ids.Kind, n int) ids.ID { return ids.ID(uint64(k)<<56 | uint64(n)) }
	d := &schema.Dataset{}
	n := 200 + r.Intn(200)
	for i := 0; i < n; i++ {
		d.Persons = append(d.Persons, schema.Person{ID: id(ids.KindPerson, i)})
	}
	ghost := id(ids.KindPerson, n)    // a knows endpoint absent from d.Persons
	member := id(ids.KindPerson, n+1) // a member absent from d.Persons
	friendless := n - 1               // no knows edge names the last person
	person := func() ids.ID { return d.Persons[r.Intn(friendless)].ID }
	for i := 0; i < 3*n; i++ {
		d.Knows = append(d.Knows, schema.Knows{A: person(), B: person()})
	}
	for i := 0; i < n/10; i++ {
		k := d.Knows[r.Intn(len(d.Knows))]
		d.Knows = append(d.Knows, k, schema.Knows{A: k.B, B: k.A}) // duplicate pairs, both ways
	}
	self := person()
	d.Knows = append(d.Knows,
		schema.Knows{A: self, B: self},
		schema.Knows{A: person(), B: ghost}, schema.Knows{A: ghost, B: person()})

	forums := n / 4
	for i := 0; i < 4*n; i++ {
		d.Memberships = append(d.Memberships, schema.Membership{
			Forum: id(ids.KindForum, r.Intn(forums)), Person: d.Persons[r.Intn(n)].ID})
	}
	d.Memberships = append(d.Memberships,
		d.Memberships[0], // a duplicate membership
		schema.Membership{Forum: id(ids.KindForum, 0), Person: member},
		schema.Membership{Forum: id(ids.KindForum, 1), Person: ghost},
		schema.Membership{Forum: id(ids.KindForum, forums), Person: person()}) // a forum without posts
	creators := []ids.ID{ghost, member, id(ids.KindPerson, n+2)}
	creator := func() ids.ID {
		if r.Intn(20) == 0 {
			return creators[r.Intn(len(creators))]
		}
		return d.Persons[r.Intn(n)].ID
	}
	for i := 0; i < 5*n; i++ {
		forum := id(ids.KindForum, r.Intn(forums))
		if r.Intn(10) == 0 {
			forum = id(ids.KindForum, forums+1) // nobody joined it
		}
		d.Posts = append(d.Posts, schema.Post{Creator: creator(), Forum: forum})
	}
	for i := 0; i < 5*n; i++ {
		d.Comments = append(d.Comments, schema.Comment{Creator: creator()})
	}
	return d
}

// The map-based builders the dense index replaced, unchanged but for their
// names: the reference TestPCTablesMatchMapReference holds the index to.

func refBuildQ2Table(d *schema.Dataset) *Table {
	friends := adjacency(d)
	msgs := messageCounts(d)
	t := &Table{Cols: []string{"|join1| friends", "|join2| friend messages"}}
	for i := range d.Persons {
		p := d.Persons[i].ID
		fs := friends[p]
		total := 0
		for _, f := range fs {
			total += msgs[f]
		}
		t.Rows = append(t.Rows, Row{Param: uint64(p), Counts: []int{len(fs), total}})
	}
	return t
}

func refBuildQ5Table(d *schema.Dataset) *Table {
	friends := adjacency(d)
	memberOf := map[ids.ID][]ids.ID{}
	for i := range d.Memberships {
		m := &d.Memberships[i]
		memberOf[m.Person] = append(memberOf[m.Person], m.Forum)
	}
	forumPosts := map[ids.ID]int{}
	for i := range d.Posts {
		forumPosts[d.Posts[i].Forum]++
	}
	t := &Table{Cols: []string{"|join1| friends", "|join2| 2-hop", "|join3| memberships", "|join4| forum posts"}}
	for i := range d.Persons {
		p := d.Persons[i].ID
		env := twoHop(friends, p)
		mem := 0
		joined := map[ids.ID]bool{}
		for _, q := range env {
			mem += len(memberOf[q])
			for _, f := range memberOf[q] {
				joined[f] = true
			}
		}
		posts := 0
		for f := range joined {
			posts += forumPosts[f]
		}
		t.Rows = append(t.Rows, Row{Param: uint64(p), Counts: []int{len(friends[p]), len(env), mem, posts}})
	}
	return t
}

func refBuildQ9Table(d *schema.Dataset) *Table {
	friends := adjacency(d)
	msgs := messageCounts(d)
	t := &Table{Cols: []string{"|join1| friends", "|join2| 2-hop", "|join3| messages"}}
	for i := range d.Persons {
		p := d.Persons[i].ID
		env := twoHop(friends, p)
		total := 0
		for _, q := range env {
			total += msgs[q]
		}
		t.Rows = append(t.Rows, Row{Param: uint64(p), Counts: []int{len(friends[p]), len(env), total}})
	}
	return t
}

func refTwoHopSizes(d *schema.Dataset) []int {
	friends := adjacency(d)
	out := make([]int, 0, len(d.Persons))
	for i := range d.Persons {
		out = append(out, len(twoHop(friends, d.Persons[i].ID)))
	}
	sort.Ints(out)
	return out
}

func adjacency(d *schema.Dataset) map[ids.ID][]ids.ID {
	adj := make(map[ids.ID][]ids.ID, len(d.Persons))
	for i := range d.Knows {
		k := &d.Knows[i]
		adj[k.A] = append(adj[k.A], k.B)
		adj[k.B] = append(adj[k.B], k.A)
	}
	return adj
}

func messageCounts(d *schema.Dataset) map[ids.ID]int {
	m := make(map[ids.ID]int, len(d.Persons))
	for i := range d.Posts {
		m[d.Posts[i].Creator]++
	}
	for i := range d.Comments {
		m[d.Comments[i].Creator]++
	}
	return m
}

func twoHop(adj map[ids.ID][]ids.ID, p ids.ID) []ids.ID {
	seen := map[ids.ID]bool{p: true}
	var out []ids.ID
	for _, f := range adj[p] {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	direct := len(out)
	for i := 0; i < direct; i++ {
		for _, ff := range adj[out[i]] {
			if !seen[ff] {
				seen[ff] = true
				out = append(out, ff)
			}
		}
	}
	return out
}
