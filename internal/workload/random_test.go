package workload

import (
	"fmt"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// Randomised-graph equivalence: instead of the generator's correlated SNB
// dataset, grow a random schema-shaped graph one committed transaction at
// a time and re-check, after every commit, that all queries agree between
// the two Reader instantiations. This probes epoch tracking and visibility
// edge cases the well-formed generated data cannot reach (dangling reply
// targets, memberless forums, persons without properties, ...).

// randGraph accumulates the random graph's entity population.
type randGraph struct {
	persons  []ids.ID
	messages []ids.ID // posts and comments
	forums   []ids.ID
	tags     []ids.ID
}

var randFirstNames = []string{"Ada", "Bob", "Eve"}

// loadRandomDimensions commits the dimension side of the schema: places,
// organisations, a small tag-class tree and tags.
func loadRandomDimensions(t *testing.T, st *store.Store, r *xrand.Rand, g *randGraph) {
	t.Helper()
	tx := st.Begin()
	for i := 0; i < 4; i++ {
		place := ids.DimensionID(ids.KindPlace, uint32(i))
		if err := tx.CreateNode(place, store.Props{store.NewProp(store.PropName, store.String(fmt.Sprintf("place%d", i)))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		org := ids.DimensionID(ids.KindOrganisation, uint32(i))
		if err := tx.CreateNode(org, store.Props{store.NewProp(store.PropName, store.String(fmt.Sprintf("org%d", i)))}); err != nil {
			t.Fatal(err)
		}
		_ = tx.AddEdge(org, store.EdgeIsLocatedIn, ids.DimensionID(ids.KindPlace, uint32(i%4)), 0)
	}
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

// randomWorkloadStep applies one random committed transaction: persons with
// interests and jobs, knows edges, an occasional forum, posts, reply
// comments and likes.
func randomWorkloadStep(t *testing.T, st *store.Store, r *xrand.Rand, g *randGraph, step int) {
	t.Helper()
	tx := st.Begin()
	now := int64(step) * 100000
	for i := 0; i < 1+r.Intn(2); i++ {
		p := ids.Compose(ids.KindPerson, int64(step), uint32(i))
		props := store.Props{
			store.NewProp(store.PropFirstName, store.String(randFirstNames[r.Intn(len(randFirstNames))])),
			store.NewProp(store.PropLastName, store.String(fmt.Sprintf("L%d", r.Intn(5)))),
			store.NewProp(store.PropBirthday, store.Int64(int64(r.Intn(1<<30))*1000)),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
			store.NewProp(store.PropCreationDate, store.Int64(now)),
		}
		if err := tx.CreateNode(p, props); err != nil {
			t.Fatal(err)
		}
		_ = tx.AddEdge(p, store.EdgeIsLocatedIn, ids.DimensionID(ids.KindPlace, uint32(r.Intn(4))), 0)
		for k := 0; k < 1+r.Intn(2); k++ {
			_ = tx.AddEdge(p, store.EdgeHasInterest, g.tags[r.Intn(len(g.tags))], 0)
		}
		_ = tx.AddEdge(p, store.EdgeWorkAt, ids.DimensionID(ids.KindOrganisation, uint32(r.Intn(6))), int64(2000+r.Intn(20)))
		_ = tx.AddEdge(p, store.EdgeStudyAt, ids.DimensionID(ids.KindOrganisation, uint32(r.Intn(6))), int64(1995+r.Intn(15)))
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
		_ = tx.AddEdge(f, store.EdgeHasModerator, g.persons[r.Intn(len(g.persons))], 0)
		for k := 0; k < 2; k++ {
			_ = tx.AddEdge(f, store.EdgeHasMember, g.persons[r.Intn(len(g.persons))], now+int64(k))
		}
		g.forums = append(g.forums, f)
	}
	for i := 0; i < 2; i++ {
		post := ids.Compose(ids.KindPost, int64(step), uint32(i))
		created := now + int64(10+i)
		if err := tx.CreateNode(post, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(created)),
			store.NewProp(store.PropContent, store.String(fmt.Sprintf("post %d/%d", step, i))),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
		}); err != nil {
			t.Fatal(err)
		}
		_ = tx.AddEdge(post, store.EdgeHasCreator, g.persons[r.Intn(len(g.persons))], created)
		if len(g.forums) > 0 {
			_ = tx.AddEdge(g.forums[r.Intn(len(g.forums))], store.EdgeContainerOf, post, created)
		}
		for k := 0; k < 1+r.Intn(2); k++ {
			_ = tx.AddEdge(post, store.EdgeHasTag, g.tags[r.Intn(len(g.tags))], 0)
		}
		g.messages = append(g.messages, post)
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		c := ids.Compose(ids.KindComment, int64(step), uint32(i))
		created := now + int64(50+i)
		if err := tx.CreateNode(c, store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(created)),
			store.NewProp(store.PropContent, store.String(fmt.Sprintf("re %d/%d", step, i))),
			store.NewProp(store.PropCountry, store.Int64(int64(r.Intn(4)))),
		}); err != nil {
			t.Fatal(err)
		}
		_ = tx.AddEdge(c, store.EdgeReplyOf, g.messages[r.Intn(len(g.messages))], created)
		_ = tx.AddEdge(c, store.EdgeHasCreator, g.persons[r.Intn(len(g.persons))], created)
		if r.Bool(0.5) {
			_ = tx.AddEdge(c, store.EdgeHasTag, g.tags[r.Intn(len(g.tags))], 0)
		}
		g.messages = append(g.messages, c)
	}
	for i := 0; i < 2; i++ {
		_ = tx.AddEdge(g.persons[r.Intn(len(g.persons))], store.EdgeLikes, g.messages[r.Intn(len(g.messages))], now+int64(80+i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestQueriesAgreeOnRandomGraphs grows random graphs with interleaved
// commits and asserts full query equivalence at every epoch.
func TestQueriesAgreeOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		r := xrand.New(seed)
		st := store.New()
		g := &randGraph{}
		loadRandomDimensions(t, st, r, g)
		for step := 1; step <= 8; step++ {
			randomWorkloadStep(t, st, r, g, step)
			persons := g.persons
			if len(persons) > 10 {
				persons = persons[len(persons)-10:]
			}
			messages := g.messages
			if len(messages) > 10 {
				messages = messages[len(messages)-10:]
			}
			assertQueriesAgree(t, st, persons, messages, 1<<60)
		}
	}
}
