package workload

import (
	"sort"
	"sync"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// The workload tests run against a generated SF-tiny dataset loaded into a
// fresh store, with the full dataset kept for reference-model checks.
var (
	setupOnce sync.Once
	testStore *store.Store
	testData  *schema.Dataset
)

func setup(t *testing.T) (*store.Store, *schema.Dataset) {
	t.Helper()
	setupOnce.Do(func() {
		out := datagen.Generate(datagen.Config{Seed: 99, Persons: 250, Workers: 2})
		st := store.New()
		if err := schema.LoadDimensions(st); err != nil {
			panic(err)
		}
		if err := schema.Load(st, out.Data); err != nil {
			panic(err)
		}
		testStore, testData = st, out.Data
	})
	return testStore, testData
}

// pickPersonWithFriends returns a person with at least minFriends friends.
func pickPersonWithFriends(t *testing.T, d *schema.Dataset, minFriends int) ids.ID {
	t.Helper()
	deg := map[ids.ID]int{}
	for _, k := range d.Knows {
		deg[k.A]++
		deg[k.B]++
	}
	for i := range d.Persons {
		if deg[d.Persons[i].ID] >= minFriends {
			return d.Persons[i].ID
		}
	}
	t.Fatalf("no person with %d friends", minFriends)
	return 0
}

// refFriends computes the reference friend set from the raw dataset.
func refFriends(d *schema.Dataset, p ids.ID) map[ids.ID]bool {
	out := map[ids.ID]bool{}
	for _, k := range d.Knows {
		if k.A == p {
			out[k.B] = true
		}
		if k.B == p {
			out[k.A] = true
		}
	}
	return out
}

func TestFriendsHelpersMatchReference(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	want := refFriends(d, p)
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		sc.begin()
		got := friendsOf(tx, sc, p)
		if len(got) != len(want) {
			t.Fatalf("friendsOf: got %d want %d", len(got), len(want))
		}
		for _, f := range got {
			if !want[f] {
				t.Fatalf("unexpected friend %v", f)
			}
		}
		// 2-hop environment reference.
		ref := map[ids.ID]bool{}
		for f := range want {
			ref[f] = true
			for ff := range refFriends(d, f) {
				if ff != p {
					ref[ff] = true
				}
			}
		}
		env, _ := friendsAndFoF(tx, sc, p)
		if len(env) != len(ref) {
			t.Fatalf("friendsAndFoF: got %d want %d", len(env), len(ref))
		}
	})
}

func TestQ1FindsNamesakesInOrder(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	// Use the most common first name in the dataset to guarantee hits.
	counts := map[string]int{}
	for i := range d.Persons {
		counts[d.Persons[i].FirstName]++
	}
	name, best := "", 0
	for n, c := range counts {
		if c > best {
			name, best = n, c
		}
	}
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		rows := Q1(tx, sc, p, name)
		if len(rows) == 0 {
			t.Skip("no namesakes within 3 hops of test person")
		}
		for i, r := range rows {
			if tx.PropOf(store.ByID(r.Person), store.PropFirstName).Str() != name {
				t.Fatal("Q1 returned wrong name")
			}
			if r.Distance < 1 || r.Distance > 3 {
				t.Fatalf("distance %d out of range", r.Distance)
			}
			if i > 0 {
				prev := rows[i-1]
				if r.Distance < prev.Distance {
					t.Fatal("Q1 not sorted by distance")
				}
				if r.Distance == prev.Distance && r.LastName < prev.LastName {
					t.Fatal("Q1 not sorted by last name within distance")
				}
			}
		}
		if len(rows) > 20 {
			t.Fatal("Q1 exceeds limit")
		}
	})
}

func TestQ2MatchesReferenceModel(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	maxDate := datagen.UpdateCut
	// Reference: all messages of direct friends before maxDate.
	friends := refFriends(d, p)
	type ref struct {
		id   ids.ID
		date int64
	}
	var want []ref
	for i := range d.Posts {
		if friends[d.Posts[i].Creator] && d.Posts[i].CreationDate <= maxDate {
			want = append(want, ref{d.Posts[i].ID, d.Posts[i].CreationDate})
		}
	}
	for i := range d.Comments {
		if friends[d.Comments[i].Creator] && d.Comments[i].CreationDate <= maxDate {
			want = append(want, ref{d.Comments[i].ID, d.Comments[i].CreationDate})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].date != want[j].date {
			return want[i].date > want[j].date
		}
		return want[i].id < want[j].id
	})
	if len(want) > 20 {
		want = want[:20]
	}
	st.View(func(tx *store.Txn) {
		got := Q2(tx, NewScratch(), p, maxDate)
		if len(got) != len(want) {
			t.Fatalf("Q2 size: got %d want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Message != want[i].id || got[i].CreationDate != want[i].date {
				t.Fatalf("Q2 row %d: got %v/%d want %v/%d",
					i, got[i].Message, got[i].CreationDate, want[i].id, want[i].date)
			}
		}
	})
}

func TestQ9SupersetOfQ2AndOrdered(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	maxDate := datagen.UpdateCut
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		q9 := Q9(tx, sc, p, maxDate)
		if len(q9) == 0 {
			t.Skip("no messages in 2-hop environment")
		}
		for i := 1; i < len(q9); i++ {
			if q9[i].CreationDate > q9[i-1].CreationDate {
				t.Fatal("Q9 not sorted desc by date")
			}
		}
		// The 2-hop newest message is at least as new as the 1-hop newest.
		q2 := Q2(tx, sc, p, maxDate)
		if len(q2) > 0 && q9[0].CreationDate < q2[0].CreationDate {
			t.Fatal("Q9 top should dominate Q2 top")
		}
	})
}

func TestQ9JoinPlansAgree(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	maxDate := datagen.UpdateCut
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		want := Q9(tx, sc, p, maxDate)
		for _, plan := range []Q9Plan{
			{JoinINL, JoinINL},
			{JoinHash, JoinINL},
			{JoinINL, JoinHash},
			{JoinHash, JoinHash},
		} {
			got := Q9Join(tx, sc, p, maxDate, plan)
			if len(got) != len(want) {
				t.Fatalf("plan %+v: size %d want %d", plan, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("plan %+v row %d: %+v want %+v", plan, i, got[i], want[i])
				}
			}
		}
	})
}

func TestQ3TravelersExcludeLocals(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	st.View(func(tx *store.Txn) {
		// Use the two most common countries as X and Y to maximise hits.
		rows := Q3(tx, NewScratch(), p, 0, 1, datagen.SimStart, datagen.SimEnd-datagen.SimStart)
		for _, r := range rows {
			home := int(tx.PropOf(store.ByID(r.Person), store.PropCountry).Int())
			if home == 0 || home == 1 {
				t.Fatal("Q3 returned a local person")
			}
			if r.CountX == 0 || r.CountY == 0 {
				t.Fatal("Q3 returned person without both countries")
			}
		}
		// Sorted by total desc.
		for i := 1; i < len(rows); i++ {
			if rows[i].CountX+rows[i].CountY > rows[i-1].CountX+rows[i-1].CountY {
				t.Fatal("Q3 not sorted")
			}
		}
	})
}

func TestQ4NewTopicsWindow(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	mid := datagen.SimStart + (datagen.SimEnd-datagen.SimStart)/2
	st.View(func(tx *store.Txn) {
		rows := Q4(tx, NewScratch(), p, mid, 90*24*3600*1000)
		if len(rows) > 10 {
			t.Fatal("Q4 exceeds limit")
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Count > rows[i-1].Count {
				t.Fatal("Q4 not sorted by count desc")
			}
		}
		// "New" check: no friend post before the window carries the tag.
		friends := refFriends(d, p)
		for _, row := range rows {
			for i := range d.Posts {
				post := &d.Posts[i]
				if !friends[post.Creator] || post.CreationDate >= mid {
					continue
				}
				for _, tg := range post.Tags {
					if schema.TagNodeID(tg) == row.Tag {
						t.Fatalf("Q4 returned old tag %s", row.Name)
					}
				}
			}
		}
	})
}

func TestQ5NewGroups(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		rows := Q5(tx, sc, p, datagen.SimStart) // all joins qualify
		if len(rows) == 0 {
			t.Skip("no forums joined by 2-hop environment")
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Count > rows[i-1].Count {
				t.Fatal("Q5 not sorted")
			}
		}
		// A forum joined only before minDate must not appear.
		late := Q5(tx, sc, p, datagen.SimEnd)
		if len(late) != 0 {
			t.Fatal("Q5 with future minDate should be empty")
		}
	})
}

func TestQ6CoOccurrence(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 3)
	st.View(func(tx *store.Txn) {
		// Find a tag that occurs with co-tags among the environment's posts.
		sc := NewScratch()
		sc.begin()
		env, _ := friendsAndFoF(tx, sc, p)
		var tag ids.ID
		for _, q := range env {
			for _, m := range messagesOf(tx, q) {
				if m.To.Kind() != ids.KindPost {
					continue
				}
				if tags := tx.Out(m.To, store.EdgeHasTag); len(tags) >= 2 {
					tag = tags[0].To
					break
				}
			}
			if tag != 0 {
				break
			}
		}
		if tag == 0 {
			t.Skip("no multi-tag posts in environment")
		}
		rows := Q6(tx, sc, p, tag)
		for _, r := range rows {
			if r.Tag == tag {
				t.Fatal("Q6 must exclude the query tag")
			}
			if r.Count <= 0 {
				t.Fatal("Q6 zero count row")
			}
		}
	})
}

func TestQ7RecentLikes(t *testing.T) {
	st, d := setup(t)
	// Find a person whose messages have likes.
	liked := map[ids.ID]bool{}
	for _, l := range d.Likes {
		liked[l.Message] = true
	}
	creator := map[ids.ID]ids.ID{}
	for i := range d.Posts {
		creator[d.Posts[i].ID] = d.Posts[i].Creator
	}
	for i := range d.Comments {
		creator[d.Comments[i].ID] = d.Comments[i].Creator
	}
	var p ids.ID
	for m := range liked {
		if c, ok := creator[m]; ok {
			p = c
			break
		}
	}
	if p == 0 {
		t.Skip("no liked messages")
	}
	st.View(func(tx *store.Txn) {
		rows := Q7(tx, NewScratch(), p)
		if len(rows) == 0 {
			t.Fatal("expected likes")
		}
		seen := map[ids.ID]bool{}
		for i, r := range rows {
			if r.LatencyMillis < 0 {
				t.Fatal("negative like latency")
			}
			if seen[r.Liker] {
				t.Fatal("Q7 must report one row per liker")
			}
			seen[r.Liker] = true
			if i > 0 && r.LikeDate > rows[i-1].LikeDate {
				t.Fatal("Q7 not sorted desc")
			}
		}
	})
}

func TestQ8RecentReplies(t *testing.T) {
	st, d := setup(t)
	// A person with replied-to posts.
	replied := map[ids.ID]bool{}
	for i := range d.Comments {
		replied[d.Comments[i].ReplyOf] = true
	}
	var p ids.ID
	for i := range d.Posts {
		if replied[d.Posts[i].ID] {
			p = d.Posts[i].Creator
			break
		}
	}
	if p == 0 {
		t.Skip("no replies in dataset")
	}
	st.View(func(tx *store.Txn) {
		rows := Q8(tx, NewScratch(), p)
		if len(rows) == 0 {
			t.Fatal("expected replies")
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].CreationDate > rows[i-1].CreationDate {
				t.Fatal("Q8 not sorted desc")
			}
		}
		for _, r := range rows {
			if r.Comment.Kind() != ids.KindComment {
				t.Fatal("Q8 returned non-comment")
			}
		}
	})
}

func TestQ10Recommendation(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 5)
	st.View(func(tx *store.Txn) {
		direct := map[ids.ID]bool{p: true}
		sc := NewScratch()
		sc.begin()
		for _, f := range append([]ids.ID(nil), friendsOf(tx, sc, p)...) {
			direct[f] = true
		}
		found := false
		for sign := 0; sign < 12; sign++ {
			rows := Q10(tx, sc, p, sign)
			for i, r := range rows {
				found = true
				if direct[r.Person] {
					t.Fatal("Q10 recommended a direct friend or self")
				}
				if ZodiacSign(tx.PropOf(store.ByID(r.Person), store.PropBirthday).Int()) != sign {
					t.Fatal("Q10 sign filter broken")
				}
				if i > 0 && r.Score > rows[i-1].Score {
					t.Fatal("Q10 not sorted by score desc")
				}
			}
		}
		if !found {
			t.Skip("no FoF candidates with any sign")
		}
	})
}

func TestQ11JobReferral(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 5)
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		found := false
		for country := range dict.Countries {
			rows := Q11(tx, sc, p, country, 2013)
			for i, r := range rows {
				found = true
				if r.WorkFrom >= 2013 {
					t.Fatal("Q11 workFrom filter broken")
				}
				if i > 0 && r.WorkFrom < rows[i-1].WorkFrom {
					t.Fatal("Q11 not sorted asc by workFrom")
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Skip("no working FoF found")
		}
	})
}

func TestQ12ExpertSearch(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 5)
	st.View(func(tx *store.Txn) {
		// Thing (class 0) covers every tag, so any reply to a tagged post
		// counts.
		root := ids.DimensionID(ids.KindTagClass, 0)
		sc := NewScratch()
		rows := Q12(tx, sc, p, root)
		for i := 1; i < len(rows); i++ {
			if rows[i].Replies > rows[i-1].Replies {
				t.Fatal("Q12 not sorted")
			}
		}
		// A leaf class must never yield more replies than the root.
		leaf := ids.DimensionID(ids.KindTagClass, 3)
		leafRows := Q12(tx, sc, p, leaf)
		sum := func(rs []Q12Row) int {
			n := 0
			for _, r := range rs {
				n += r.Replies
			}
			return n
		}
		if sum(leafRows) > sum(rows) {
			t.Fatal("leaf class exceeded root class")
		}
	})
}

// TestQ12FirstHasTypeDecides pins that a tag's first hasType edge decides
// its class: t1 is typed B then A, t2 A then B, and a friend replies once to
// a post tagged t1 and twice to a post tagged t2. Class A counts the
// replies to the t2 post, class B the reply to the t1 post, on the txn path
// and the view.
func TestQ12FirstHasTypeDecides(t *testing.T) {
	st := store.New()
	tx := st.Begin()
	create := func(id ids.ID) {
		if err := tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String("n"))}); err != nil {
			t.Fatal(err)
		}
	}
	classA, classB := ids.DimensionID(ids.KindTagClass, 1), ids.DimensionID(ids.KindTagClass, 2)
	t1, t2 := ids.DimensionID(ids.KindTag, 1), ids.DimensionID(ids.KindTag, 2)
	start, friend := ids.Compose(ids.KindPerson, 1, 0), ids.Compose(ids.KindPerson, 2, 0)
	for _, id := range []ids.ID{classA, classB, t1, t2, start, friend} {
		create(id)
	}
	_ = tx.AddEdge(t1, store.EdgeHasType, classB, 0)
	_ = tx.AddEdge(t1, store.EdgeHasType, classA, 0)
	_ = tx.AddEdge(t2, store.EdgeHasType, classA, 0)
	_ = tx.AddEdge(t2, store.EdgeHasType, classB, 0)
	_ = tx.AddKnows(start, friend, 1)
	for i, tag := range []ids.ID{t1, t2} {
		post := ids.Compose(ids.KindPost, 3, uint32(i))
		create(post)
		_ = tx.AddEdge(post, store.EdgeHasTag, tag, 0)
		for k := 0; k <= i; k++ {
			reply := ids.Compose(ids.KindComment, 4, uint32(2*i+k))
			create(reply)
			_ = tx.AddEdge(reply, store.EdgeReplyOf, post, 5)
			_ = tx.AddEdge(reply, store.EdgeHasCreator, friend, 5)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v := st.CurrentView()
	st.View(func(tx *store.Txn) {
		for class, replies := range map[ids.ID]int{classA: 2, classB: 1} {
			want := []Q12Row{{Person: friend, Replies: replies}}
			if got := Q12(tx, NewScratch(), start, class); !rowsEqual(t, got, want) {
				t.Errorf("txn Q12(%v): %+v, want %+v", class, got, want)
			}
			if got := Q12(v, NewScratch(), start, class); !rowsEqual(t, got, want) {
				t.Errorf("view Q12(%v): %+v, want %+v", class, got, want)
			}
		}
	})
}

func TestQ13AgainstReferenceBFS(t *testing.T) {
	st, d := setup(t)
	// Reference BFS on the raw dataset.
	adjacency := map[ids.ID][]ids.ID{}
	for _, k := range d.Knows {
		adjacency[k.A] = append(adjacency[k.A], k.B)
		adjacency[k.B] = append(adjacency[k.B], k.A)
	}
	refDist := func(a, b ids.ID) int {
		if a == b {
			return 0
		}
		dist := map[ids.ID]int{a: 0}
		queue := []ids.ID{a}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adjacency[cur] {
				if _, ok := dist[nb]; !ok {
					dist[nb] = dist[cur] + 1
					if nb == b {
						return dist[nb]
					}
					queue = append(queue, nb)
				}
			}
		}
		return -1
	}
	r := xrand.New(5)
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		for i := 0; i < 30; i++ {
			a := d.Persons[r.Intn(len(d.Persons))].ID
			b := d.Persons[r.Intn(len(d.Persons))].ID
			want := refDist(a, b)
			if got := Q13(tx, sc, a, b); got != want {
				t.Fatalf("Q13(%v,%v) = %d, want %d", a, b, got, want)
			}
		}
	})
}

func TestQ14PathsValid(t *testing.T) {
	st, d := setup(t)
	r := xrand.New(6)
	st.View(func(tx *store.Txn) {
		sc := NewScratch()
		checked := 0
		for i := 0; i < 60 && checked < 5; i++ {
			a := d.Persons[r.Intn(len(d.Persons))].ID
			b := d.Persons[r.Intn(len(d.Persons))].ID
			want := Q13(tx, sc, a, b)
			rows := Q14(tx, sc, a, b)
			if want < 0 {
				if len(rows) != 0 {
					t.Fatal("Q14 found path where none exists")
				}
				continue
			}
			if len(rows) == 0 {
				t.Fatal("Q14 found no path where Q13 did")
			}
			checked++
			for j, row := range rows {
				if len(row.Path) != want+1 {
					t.Fatalf("Q14 path length %d, want %d", len(row.Path)-1, want)
				}
				if row.Path[0] != a || row.Path[len(row.Path)-1] != b {
					t.Fatal("Q14 path endpoints wrong")
				}
				// Consecutive nodes must be friends.
				for k := 0; k+1 < len(row.Path); k++ {
					if !isFriend(tx, row.Path[k], row.Path[k+1]) {
						t.Fatal("Q14 path uses non-edge")
					}
				}
				if j > 0 && row.Weight > rows[j-1].Weight {
					t.Fatal("Q14 not sorted by weight desc")
				}
			}
		}
		if checked == 0 {
			t.Skip("no connected pairs sampled")
		}
	})
}

func TestShortReads(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 2)
	var postWithReply ids.ID
	replied := map[ids.ID]bool{}
	for i := range d.Comments {
		replied[d.Comments[i].ReplyOf] = true
	}
	for i := range d.Posts {
		if replied[d.Posts[i].ID] {
			postWithReply = d.Posts[i].ID
			break
		}
	}
	st.View(func(tx *store.Txn) {
		if res, ok := S1(tx, p); !ok || res.FirstName == "" {
			t.Fatal("S1 failed")
		}
		if _, ok := S1(tx, ids.Compose(ids.KindPerson, 1<<39, 0)); ok {
			t.Fatal("S1 on missing person")
		}
		s2 := S2(tx, p)
		if len(s2) > 10 {
			t.Fatal("S2 limit")
		}
		for i := 1; i < len(s2); i++ {
			if s2[i].CreationDate > s2[i-1].CreationDate {
				t.Fatal("S2 order")
			}
		}
		s3 := S3(tx, p)
		if len(s3) == 0 {
			t.Fatal("S3 empty for person with friends")
		}
		if postWithReply != 0 {
			if res, ok := S4(tx, postWithReply); !ok || res.CreationDate == 0 {
				t.Fatal("S4 failed")
			}
			if res, ok := S5(tx, postWithReply); !ok || res.Creator == 0 {
				t.Fatal("S5 failed")
			}
			if res, ok := S6(tx, postWithReply); !ok || res.Forum == 0 {
				t.Fatal("S6 failed")
			}
			s7 := S7(tx, postWithReply)
			if len(s7) == 0 {
				t.Fatal("S7 empty for replied post")
			}
			// S6 on a comment should resolve to the same forum as its root.
			comment := s7[0].Comment
			cRes, ok := S6(tx, comment)
			if !ok {
				t.Fatal("S6 on comment failed")
			}
			pRes, _ := S6(tx, postWithReply)
			if cRes.Forum != pRes.Forum {
				t.Fatal("S6 comment forum mismatch")
			}
		}
	})
}

func TestShortReadChainTerminates(t *testing.T) {
	st, d := setup(t)
	p := pickPersonWithFriends(t, d, 2)
	r := xrand.New(77, xrand.PurposeShortRead)
	st.View(func(tx *store.Txn) {
		total := 0
		for i := 0; i < 50; i++ {
			stats := RunShortReadChain(tx, DefaultShortReadMix, r, []ids.ID{p}, nil, nil)
			for _, c := range stats {
				total += c
			}
		}
		if total == 0 {
			t.Fatal("chains never executed any short read")
		}
		// Expected chain length with P=0.9, Δ=0.15 is well under 7.
		if total > 50*12 {
			t.Fatalf("chains too long: %d reads over 50 chains", total)
		}
	})
}

func TestApplyUpdates(t *testing.T) {
	_, d := setup(t)
	// Fresh store loaded with bulk part; replay all updates.
	bulk, updates := datagen.Split(d, datagen.UpdateCut)
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
	counts := map[schema.UpdateType]int{}
	for i := range updates {
		if err := ApplyUpdate(st, &updates[i]); err != nil {
			t.Fatalf("update %d (%v): %v", i, updates[i].Type, err)
		}
		counts[updates[i].Type]++
	}
	// After replay the store must contain the full dataset cardinalities.
	st.View(func(tx *store.Txn) {
		if got := len(tx.ScanKind(ids.KindPerson).IDs()); got != len(d.Persons) {
			t.Fatalf("persons after replay: %d want %d", got, len(d.Persons))
		}
		if got := len(tx.ScanKind(ids.KindPost).IDs()); got != len(d.Posts) {
			t.Fatalf("posts after replay: %d want %d", got, len(d.Posts))
		}
		if got := len(tx.ScanKind(ids.KindComment).IDs()); got != len(d.Comments) {
			t.Fatalf("comments after replay: %d want %d", got, len(d.Comments))
		}
	})
}

func TestScaledFrequency(t *testing.T) {
	for q := 1; q <= NumComplexQueries; q++ {
		base := ScaledFrequency(q, 60000)
		if base != Table4Frequencies[q-1] {
			t.Fatalf("Q%d base frequency %d, want %d", q, base, Table4Frequencies[q-1])
		}
		big := ScaledFrequency(q, 6000000)
		if big < base {
			t.Fatalf("Q%d frequency must grow with scale: %d < %d", q, big, base)
		}
		tiny := ScaledFrequency(q, 100)
		if tiny < 1 {
			t.Fatal("frequency must stay >= 1")
		}
	}
}

func TestZodiacSign(t *testing.T) {
	// 1990-03-25 is Aries; 1990-03-10 is Pisces.
	aries := int64(638323200000)  // 1990-03-25 UTC
	pisces := int64(637027200000) // 1990-03-10 UTC
	if ZodiacSign(aries) == ZodiacSign(pisces) {
		t.Fatal("sign boundary not respected")
	}
	for m := int64(0); m < 12; m++ {
		s := ZodiacSign(m * 31 * 24 * 3600 * 1000)
		if s < 0 || s > 11 {
			t.Fatalf("sign out of range: %d", s)
		}
	}
}
