package schema

import (
	"reflect"
	"testing"

	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// tinyDataset builds a hand-written two-person network exercising every
// entity type.
func tinyDataset() *Dataset {
	p1 := ids.Compose(ids.KindPerson, 10, 0)
	p2 := ids.Compose(ids.KindPerson, 20, 0)
	f1 := ids.Compose(ids.KindForum, 30, 0)
	m1 := ids.Compose(ids.KindPost, 40, 0)
	c1 := ids.Compose(ids.KindComment, 50, 0)
	return &Dataset{
		Persons: []Person{
			{
				ID: p1, FirstName: "Karl", LastName: "Mueller", Gender: dict.GenderMale,
				Birthday: 1000, CreationDate: 600000, Country: 6, City: 1,
				LocationIP: "76.0.0.1", Browser: "Chrome",
				Languages: []string{"de"}, Emails: []string{"karl@x.example.org"},
				Interests: []int{1, 2}, University: 0, ClassYear: 2001, Company: 0, WorkFrom: 2005,
			},
			{
				ID: p2, FirstName: "Yang", LastName: "Wang", Gender: dict.GenderFemale,
				Birthday: 2000, CreationDate: 1200000, Country: 0, City: 0,
				LocationIP: "20.0.0.1", Browser: "Firefox",
				Languages: []string{"zh"}, Interests: []int{2, 3},
				University: -1, Company: -1,
			},
		},
		Knows: []Knows{{A: p1, B: p2, CreationDate: 1800000}},
		Forums: []Forum{{
			ID: f1, Title: "Wall of Karl", Moderator: p1, CreationDate: 700000, Tags: []int{1},
		}},
		Memberships: []Membership{{Forum: f1, Person: p2, JoinDate: 1900000}},
		Posts: []Post{{
			ID: m1, Creator: p1, Forum: f1, CreationDate: 2000000,
			Content: "Beatles about the famous band.", Length: 30, Language: "de",
			Tags: []int{1}, Topic: 1, Country: 6, LocationIP: "76.0.0.1", Browser: "Chrome",
		}},
		Comments: []Comment{{
			ID: c1, Creator: p2, ReplyOf: m1, Root: m1, Forum: f1, CreationDate: 2100000,
			Content: "Beatles reply.", Length: 14, Tags: []int{1}, Topic: 1,
			Country: 0, LocationIP: "20.0.0.1", Browser: "Firefox",
		}},
		Likes: []Like{{Person: p2, Message: m1, Forum: f1, CreationDate: 2200000, IsPost: true}},
	}
}

func freshStore(t *testing.T, d *Dataset) *store.Store {
	t.Helper()
	st := store.New()
	if err := LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := Load(st, d); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLoadTinyDataset(t *testing.T) {
	d := tinyDataset()
	st := freshStore(t, d)
	p1, p2 := d.Persons[0].ID, d.Persons[1].ID
	st.View(func(tx *store.Txn) {
		// Persons and properties.
		if got := tx.Prop(p1, store.PropFirstName).Str(); got != "Karl" {
			t.Fatalf("p1 name %q", got)
		}
		// Symmetric knows.
		if n := tx.Out(p1, store.EdgeKnows); len(n) != 1 || n[0].To != p2 || n[0].Stamp != 1800000 {
			t.Fatalf("knows p1 = %v", n)
		}
		if n := tx.Out(p2, store.EdgeKnows); len(n) != 1 || n[0].To != p1 {
			t.Fatalf("knows p2 = %v", n)
		}
		// Forum structure.
		f := d.Forums[0].ID
		if mod := tx.Out(f, store.EdgeHasModerator); len(mod) != 1 || mod[0].To != p1 {
			t.Fatalf("moderator = %v", mod)
		}
		if mem := tx.Out(f, store.EdgeHasMember); len(mem) != 1 || mem[0].To != p2 || mem[0].Stamp != 1900000 {
			t.Fatalf("members = %v", mem)
		}
		if posts := tx.Out(f, store.EdgeContainerOf); len(posts) != 1 || posts[0].To != d.Posts[0].ID {
			t.Fatalf("containerOf = %v", posts)
		}
		// Message graph: creator stamps carry message creationDate.
		msgs := tx.In(p1, store.EdgeHasCreator)
		if len(msgs) != 1 || msgs[0].Stamp != 2000000 {
			t.Fatalf("p1 messages = %v", msgs)
		}
		// Reply chain.
		replies := tx.In(d.Posts[0].ID, store.EdgeReplyOf)
		if len(replies) != 1 || replies[0].To != d.Comments[0].ID {
			t.Fatalf("replies = %v", replies)
		}
		// Likes.
		likes := tx.In(d.Posts[0].ID, store.EdgeLikes)
		if len(likes) != 1 || likes[0].To != p2 || likes[0].Stamp != 2200000 {
			t.Fatalf("likes = %v", likes)
		}
		// Interests point at tag dimension nodes.
		ints := tx.Out(p1, store.EdgeHasInterest)
		if len(ints) != 2 {
			t.Fatalf("interests = %v", ints)
		}
		// Study/work with stamps.
		study := tx.Out(p1, store.EdgeStudyAt)
		if len(study) != 1 || study[0].Stamp != 2001 {
			t.Fatalf("study = %v", study)
		}
		work := tx.Out(p1, store.EdgeWorkAt)
		if len(work) != 1 || work[0].Stamp != 2005 {
			t.Fatalf("work = %v", work)
		}
		// p2 has no study/work edges.
		if len(tx.Out(p2, store.EdgeStudyAt)) != 0 || len(tx.Out(p2, store.EdgeWorkAt)) != 0 {
			t.Fatal("p2 should have no org edges")
		}
	})
}

func TestLoadDimensions(t *testing.T) {
	st := store.New()
	if err := LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	st.View(func(tx *store.Txn) {
		tags := tx.NodesOfKind(ids.KindTag)
		if len(tags) != dict.NumTags {
			t.Fatalf("tags loaded: %d", len(tags))
		}
		orgs := tx.NodesOfKind(ids.KindOrganisation)
		if len(orgs) != len(dict.Universities)+len(dict.Companies) {
			t.Fatalf("orgs loaded: %d", len(orgs))
		}
		// Tag -> class -> superclass chain navigable.
		tag0 := TagNodeID(0)
		cls := tx.Out(tag0, store.EdgeHasType)
		if len(cls) != 1 {
			t.Fatalf("tag class edges: %v", cls)
		}
		if got := tx.Prop(cls[0].To, store.PropName).Str(); got != dict.TagClasses[dict.Tags[0].Class].Name {
			t.Fatalf("class name %q", got)
		}
	})
}

func TestCountsHelpers(t *testing.T) {
	d := tinyDataset()
	c := d.Counts()
	if c.Persons != 2 || c.Friendships != 1 || c.Posts != 1 || c.Comments != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Messages() != 2 {
		t.Fatal("messages")
	}
	if c.Nodes() != 2+1+2 {
		t.Fatalf("nodes = %d", c.Nodes())
	}
	if c.EdgesApprox() <= 0 {
		t.Fatal("edges")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := tinyDataset()
	dir := t.TempDir()
	n, err := WriteCSVDir(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("no bytes written")
	}
	got, err := ReadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", d, got)
	}
}

func TestReadCSVDirMissing(t *testing.T) {
	if _, err := ReadCSVDir(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

func TestUpdateClassification(t *testing.T) {
	d := tinyDataset()
	cases := []struct {
		u       Update
		forum   ids.ID
		dep     bool
		depends bool
	}{
		{Update{Type: UpdateAddPerson, Person: &d.Persons[0]}, 0, true, false},
		{Update{Type: UpdateAddFriendship, DepTime: 5, Friendship: &d.Knows[0]}, 0, false, true},
		{Update{Type: UpdateAddForum, Forum: &d.Forums[0], DepTime: 1}, d.Forums[0].ID, true, true},
		{Update{Type: UpdateAddMembership, Membership: &d.Memberships[0], DepTime: 1}, d.Forums[0].ID, false, true},
		{Update{Type: UpdateAddPost, Post: &d.Posts[0], DepTime: 1}, d.Forums[0].ID, true, true},
		{Update{Type: UpdateAddComment, Comment: &d.Comments[0], DepTime: 1}, d.Forums[0].ID, true, true},
		{Update{Type: UpdateAddLikePost, Like: &d.Likes[0], DepTime: 1}, d.Forums[0].ID, false, true},
	}
	for _, c := range cases {
		if got := c.u.ForumOf(); got != c.forum {
			t.Errorf("%v ForumOf = %v, want %v", c.u.Type, got, c.forum)
		}
		if got := c.u.IsDependency(); got != c.dep {
			t.Errorf("%v IsDependency = %v", c.u.Type, got)
		}
		if got := c.u.IsDependent(); got != c.depends {
			t.Errorf("%v IsDependent = %v", c.u.Type, got)
		}
	}
}

func TestUpdateTypeString(t *testing.T) {
	if UpdateAddPerson.String() != "addPerson" || UpdateType(99).String() != "unknownUpdate" {
		t.Fatal("update names")
	}
}

// TestPropsExactlySized pins that the builders hand the store rows it can
// keep as they are: a list with spare capacity is copied by CreateNode, and
// its slack would be resident memory on every message.
func TestPropsExactlySized(t *testing.T) {
	rows := map[string]store.Props{
		"person":     PersonProps(&Person{FirstName: "a", Languages: []string{"en"}}),
		"post text":  PostProps(&Post{Content: "text", Language: "en"}),
		"post image": PostProps(&Post{ImageFile: "photo.jpg"}),
		"comment":    CommentProps(&Comment{Content: "re"}),
	}
	for name, ps := range rows {
		if cap(ps) != len(ps) {
			t.Errorf("%s: len %d, cap %d", name, len(ps), cap(ps))
		}
	}
	if got := PostProps(&Post{Content: "text"}).Get(store.PropContent).Str(); got != "text" {
		t.Errorf("post text: content %q", got)
	}
	if got := PostProps(&Post{ImageFile: "photo.jpg"}).Get(store.PropImageFile).Str(); got != "photo.jpg" {
		t.Errorf("post image: imageFile %q", got)
	}
}
