package datagen

import (
	"cmp"
	"slices"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
)

// Bulk/update split (§4): "DATAGEN can divide its output in two parts,
// splitting all data at one particular timestamp: all data before this
// point is output in the requested bulk-load format, the data with a
// timestamp after the split is formatted as input files for the query
// driver", becoming the transactional update stream.

// Split partitions a generated dataset at the cut timestamp. Entities
// created before cut form the bulk-load dataset; the rest become update
// operations ordered by due time, each annotated with T_DEP (§4.2) — the
// creation time of the latest *person* it depends on. Dependencies on
// other forum content (a comment's parent message, a membership's forum)
// are deliberately not encoded: they stay inside one forum, and the driver
// guarantees them by executing each forum's stream sequentially in due
// order; encoding them here would create the false global dependencies
// §4.2 warns about.
func Split(d *schema.Dataset, cut int64) (*schema.Dataset, []schema.Update) {
	// Creation-time lookup for dependency computation.
	personCreated := make(map[ids.ID]int64, len(d.Persons))
	for i := range d.Persons {
		personCreated[d.Persons[i].ID] = d.Persons[i].CreationDate
	}
	return SplitWith(d, cut, personCreated)
}

// SplitWith is Split with an explicit person-creation lookup. It exists for
// the streaming pipeline: activity chunks (Stream) do not carry the person
// table, so the caller builds the lookup from the first chunk and reuses it
// for every later one. Splitting each chunk and concatenating the results
// in delivery order reproduces Split of the whole dataset exactly (chunks
// are class-major slices in order, and the final per-caller DueTime sort is
// stable).
func SplitWith(d *schema.Dataset, cut int64, personCreated map[ids.ID]int64) (*schema.Dataset, []schema.Update) {
	personDate := func(p *schema.Person) int64 { return p.CreationDate }
	knowsDate := func(k *schema.Knows) int64 { return k.CreationDate }
	forumDate := func(f *schema.Forum) int64 { return f.CreationDate }
	joinDate := func(m *schema.Membership) int64 { return m.JoinDate }
	postDate := func(p *schema.Post) int64 { return p.CreationDate }
	commentDate := func(c *schema.Comment) int64 { return c.CreationDate }
	likeDate := func(l *schema.Like) int64 { return l.CreationDate }
	updates := make([]schema.Update, 0, late(d.Persons, cut, personDate)+late(d.Knows, cut, knowsDate)+
		late(d.Forums, cut, forumDate)+late(d.Memberships, cut, joinDate)+late(d.Posts, cut, postDate)+
		late(d.Comments, cut, commentDate)+late(d.Likes, cut, likeDate))

	bulk := &schema.Dataset{}
	bulk.Persons, updates = split(d.Persons, cut, personDate, updates, func(p *schema.Person) schema.Update {
		return schema.Update{Type: schema.UpdateAddPerson, DueTime: p.CreationDate, Person: p}
	})
	bulk.Knows, updates = split(d.Knows, cut, knowsDate, updates, func(k *schema.Knows) schema.Update {
		return schema.Update{
			Type: schema.UpdateAddFriendship, DueTime: k.CreationDate,
			DepTime: max(personCreated[k.A], personCreated[k.B]), Friendship: k,
		}
	})
	bulk.Forums, updates = split(d.Forums, cut, forumDate, updates, func(f *schema.Forum) schema.Update {
		return schema.Update{
			Type: schema.UpdateAddForum, DueTime: f.CreationDate,
			DepTime: personCreated[f.Moderator], Forum: f,
		}
	})
	bulk.Memberships, updates = split(d.Memberships, cut, joinDate, updates, func(m *schema.Membership) schema.Update {
		return schema.Update{
			Type: schema.UpdateAddMembership, DueTime: m.JoinDate,
			DepTime: personCreated[m.Person], Membership: m,
		}
	})
	bulk.Posts, updates = split(d.Posts, cut, postDate, updates, func(p *schema.Post) schema.Update {
		return schema.Update{
			Type: schema.UpdateAddPost, DueTime: p.CreationDate,
			DepTime: personCreated[p.Creator], Post: p,
		}
	})
	bulk.Comments, updates = split(d.Comments, cut, commentDate, updates, func(c *schema.Comment) schema.Update {
		return schema.Update{
			Type: schema.UpdateAddComment, DueTime: c.CreationDate,
			DepTime: personCreated[c.Creator], Comment: c,
		}
	})
	bulk.Likes, updates = split(d.Likes, cut, likeDate, updates, func(l *schema.Like) schema.Update {
		t := schema.UpdateAddLikeComment
		if l.IsPost {
			t = schema.UpdateAddLikePost
		}
		return schema.Update{Type: t, DueTime: l.CreationDate, DepTime: personCreated[l.Person], Like: l}
	})

	// Typed: a reflection swapper (sort.SliceStable) moves the 80-byte
	// updates about 1.5x as slowly.
	slices.SortStableFunc(updates, func(a, b schema.Update) int { return cmp.Compare(a.DueTime, b.DueTime) })
	return bulk, updates
}

// late counts the items created at or after cut.
func late[T any](items []T, cut int64, created func(*T) int64) int {
	n := 0
	for i := range items {
		if created(&items[i]) >= cut {
			n++
		}
	}
	return n
}

// split copies the items created before cut, in order, into a bulk slice of
// exactly their number, and appends the update of each other one, in order,
// to updates.
func split[T any](items []T, cut int64, created func(*T) int64, updates []schema.Update, update func(*T) schema.Update) ([]T, []schema.Update) {
	var bulk []T
	if n := len(items) - late(items, cut, created); n > 0 {
		bulk = make([]T, 0, n)
	}
	for i := range items {
		if it := &items[i]; created(it) < cut {
			bulk = append(bulk, *it)
		} else {
			updates = append(updates, update(it))
		}
	}
	return bulk, updates
}
