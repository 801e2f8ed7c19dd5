package workload

import (
	"cmp"
	"sort"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// The 7 simple read-only queries (§4: profile and post views, "the bulk of
// the user queries"; Table 7). All are point lookups of O(log n)
// complexity, written once against store.Reader like the complex queries:
// on the view path every step is a lock-free point lookup. S1-S3 are the
// profile-view family, S4-S7 the post-view family; the driver chains them
// with the random walk of §4 (RunShortReadChain).

// S1Result is a person profile view.
type S1Result struct {
	FirstName    string
	LastName     string
	Birthday     int64
	LocationIP   string
	Browser      string
	Gender       int
	CreationDate int64
}

// S1 returns the basic profile of a person.
func S1[R store.Reader](r R, p ids.ID) (S1Result, bool) {
	props, ok := r.PropsOf(store.ByID(p))
	if !ok {
		return S1Result{}, false
	}
	return S1Result{
		FirstName:    props.Get(store.PropFirstName).Str(),
		LastName:     props.Get(store.PropLastName).Str(),
		Birthday:     props.Get(store.PropBirthday).Int(),
		LocationIP:   props.Get(store.PropLocationIP).Str(),
		Browser:      props.Get(store.PropBrowserUsed).Str(),
		Gender:       int(props.Get(store.PropGender).Int()),
		CreationDate: props.Get(store.PropCreationDate).Int(),
	}, true
}

// S2 returns the person's 10 most recent messages (id, creation date),
// newest first, through a bounded top-10 heap.
func S2[R store.Reader](r R, p ids.ID) []MessageRow {
	top := newTopK(10, compareMessageRows)
	for _, m := range messagesOf(r, p) {
		top.Push(MessageRow{Message: m.To, Creator: p, CreationDate: m.Stamp})
	}
	return top.Sorted()
}

// S3Row is one friendship of S3.
type S3Row struct {
	Friend       ids.ID
	CreationDate int64
}

// S3 returns the friends of a person with the friendship dates, newest
// friendship first (capped at 20, the paper's profile view cap).
func S3[R store.Reader](r R, p ids.ID) []S3Row {
	top := newTopK(20, func(a, b S3Row) int {
		return cmp.Or(cmp.Compare(b.CreationDate, a.CreationDate), cmp.Compare(a.Friend, b.Friend))
	})
	for _, e := range r.OutOf(store.ByID(p), store.EdgeKnows) {
		top.Push(S3Row{Friend: e.To, CreationDate: e.Stamp})
	}
	return top.Sorted()
}

// S4Result is a message content view.
type S4Result struct {
	CreationDate int64
	Content      string // image file name for photos
}

// S4 returns a message's content and creation date.
func S4[R store.Reader](r R, m ids.ID) (S4Result, bool) {
	props, ok := r.PropsOf(store.ByID(m))
	if !ok {
		return S4Result{}, false
	}
	content := props.Get(store.PropContent).Str()
	if content == "" {
		content = props.Get(store.PropImageFile).Str()
	}
	return S4Result{
		CreationDate: props.Get(store.PropCreationDate).Int(),
		Content:      content,
	}, true
}

// S5Result is a message creator view.
type S5Result struct {
	Creator   ids.ID
	FirstName string
	LastName  string
}

// S5 returns the creator of a message.
func S5[R store.Reader](r R, m ids.ID) (S5Result, bool) {
	cs := r.OutNodes(store.ByID(m), store.EdgeHasCreator)
	if cs.Len() == 0 {
		return S5Result{}, false
	}
	c := cs.Node(0)
	return S5Result{
		Creator:   c.ID(),
		FirstName: r.PropOf(c, store.PropFirstName).Str(),
		LastName:  r.PropOf(c, store.PropLastName).Str(),
	}, true
}

// S6Result is a message's forum view.
type S6Result struct {
	Forum     ids.ID
	Title     string
	Moderator ids.ID
}

// S6 returns the forum containing a message (walking replyOf up to the
// root post for comments).
func S6[R store.Reader](r R, m ids.ID) (S6Result, bool) {
	cur := store.ByID(m)
	for i := 0; i < 64 && cur.ID().Kind() == ids.KindComment; i++ {
		parents := r.OutNodes(cur, store.EdgeReplyOf)
		if parents.Len() == 0 {
			return S6Result{}, false
		}
		cur = parents.Node(0)
	}
	containers := r.InNodes(cur, store.EdgeContainerOf)
	if containers.Len() == 0 {
		return S6Result{}, false
	}
	forum := containers.Node(0)
	var moderator ids.ID
	if ms := r.OutOf(forum, store.EdgeHasModerator); len(ms) > 0 {
		moderator = ms[0].To
	}
	return S6Result{
		Forum:     forum.ID(),
		Title:     r.PropOf(forum, store.PropTitle).Str(),
		Moderator: moderator,
	}, true
}

// S7Row is one reply in S7.
type S7Row struct {
	Comment       ids.ID
	Author        ids.ID
	CreationDate  int64
	KnowsOriginal bool // reply author knows the original message author
}

// S7 returns the direct replies to a message, newest first. S7 has no
// LIMIT, so the result is sorted in full.
func S7[R store.Reader](r R, m ids.ID) []S7Row {
	mn := r.Resolve(m)
	var origAuthor ids.ID
	if cs := r.OutOf(mn, store.EdgeHasCreator); len(cs) > 0 {
		origAuthor = cs[0].To
	}
	replies := r.InNodes(mn, store.EdgeReplyOf)
	rows := make([]S7Row, 0, replies.Len())
	for i, re := range replies.Edges() {
		var author ids.ID
		if cs := r.OutOf(replies.Node(i), store.EdgeHasCreator); len(cs) > 0 {
			author = cs[0].To
		}
		rows = append(rows, S7Row{
			Comment:       re.To,
			Author:        author,
			CreationDate:  re.Stamp,
			KnowsOriginal: origAuthor != 0 && author != 0 && isFriend(r, author, origAuthor),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].CreationDate != rows[j].CreationDate {
			return rows[i].CreationDate > rows[j].CreationDate
		}
		return rows[i].Comment < rows[j].Comment
	})
	return rows
}
