package schema

import (
	"fmt"
	"strings"
	"sync/atomic"

	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// RegisterIndexes does nothing.
//
// Deprecated: the store has no secondary indexes; kept only for
// benchmark/'s call sites.
func RegisterIndexes(*store.Store) {}

// LoadDimensions bulk-loads the dimension tables (tags, tag classes,
// places, organisations) shared by every dataset.
func LoadDimensions(st *store.Store) error {
	tx := st.Begin()
	for _, tc := range dict.TagClasses {
		id := ids.DimensionID(ids.KindTagClass, uint32(tc.ID))
		if err := tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String(tc.Name))}); err != nil {
			return err
		}
		if tc.Parent >= 0 {
			parent := ids.DimensionID(ids.KindTagClass, uint32(tc.Parent))
			if err := tx.AddEdge(id, store.EdgeIsSubclassOf, parent, 0); err != nil {
				return err
			}
		}
	}
	for _, tg := range dict.Tags {
		id := ids.DimensionID(ids.KindTag, uint32(tg.ID))
		if err := tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String(tg.Name))}); err != nil {
			return err
		}
		if err := tx.AddEdge(id, store.EdgeHasType, ids.DimensionID(ids.KindTagClass, uint32(tg.Class)), 0); err != nil {
			return err
		}
	}
	for _, c := range dict.Countries {
		id := ids.DimensionID(ids.KindPlace, uint32(c.ID))
		if err := tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String(c.Name))}); err != nil {
			return err
		}
	}
	for _, u := range dict.Universities {
		id := ids.DimensionID(ids.KindOrganisation, uint32(u.ID))
		if err := tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String(u.Name))}); err != nil {
			return err
		}
		if err := tx.AddEdge(id, store.EdgeIsLocatedIn, ids.DimensionID(ids.KindPlace, uint32(u.Country)), 0); err != nil {
			return err
		}
	}
	for _, c := range dict.Companies {
		// Companies share the Organisation kind; offset their sequence
		// past the university range.
		id := CompanyNodeID(c.ID)
		if err := tx.CreateNode(id, store.Props{store.NewProp(store.PropName, store.String(c.Name))}); err != nil {
			return err
		}
		if err := tx.AddEdge(id, store.EdgeIsLocatedIn, ids.DimensionID(ids.KindPlace, uint32(c.Country)), 0); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// CompanyNodeID maps a dict company index to its store node ID (companies
// and universities share the Organisation kind).
func CompanyNodeID(companyIdx int) ids.ID {
	return ids.DimensionID(ids.KindOrganisation, uint32(len(dict.Universities)+companyIdx))
}

// TagNodeID maps a dict tag index to its store node ID.
func TagNodeID(tagIdx int) ids.ID { return ids.DimensionID(ids.KindTag, uint32(tagIdx)) }

// PlaceNodeID maps a dict country index to its store node ID.
func PlaceNodeID(countryIdx int) ids.ID { return ids.DimensionID(ids.KindPlace, uint32(countryIdx)) }

// loadBatch is the number of entities per bulk-load transaction: large
// enough to amortise commit cost, small enough to bound txn buffers.
const loadBatch = 2000

// Load bulk-loads a dataset into the store. Call LoadDimensions first.
func Load(st *store.Store, d *Dataset) error {
	return LoadParallel(st, d, 1)
}

// LoadParallel is Load with parallel transaction building: up to workers
// goroutines build the batch transactions of each entity class concurrently
// (property construction and string interning dominate build cost), while
// commits are issued strictly in batch order. Ordered commits make the
// loaded store byte-identical to a sequential Load — same commit
// timestamps, same kind-list order, same adjacency insertion order — for
// any worker count, so equivalence suites and recovery tests see one
// canonical store. Entity classes still load in referential order (persons
// before knows, messages before likes).
func LoadParallel(st *store.Store, d *Dataset, workers int) error {
	if err := loadOrdered(st, d.Persons, workers, AddPerson); err != nil {
		return fmt.Errorf("load persons: %w", err)
	}
	err := loadOrdered(st, d.Knows, workers, func(tx *store.Txn, k *Knows) error {
		return tx.AddKnows(k.A, k.B, k.CreationDate)
	})
	if err != nil {
		return fmt.Errorf("load knows: %w", err)
	}
	if err := loadOrdered(st, d.Forums, workers, AddForum); err != nil {
		return fmt.Errorf("load forums: %w", err)
	}
	err = loadOrdered(st, d.Memberships, workers, func(tx *store.Txn, m *Membership) error {
		return tx.AddEdge(m.Forum, store.EdgeHasMember, m.Person, m.JoinDate)
	})
	if err != nil {
		return fmt.Errorf("load memberships: %w", err)
	}
	if err := loadOrdered(st, d.Posts, workers, AddPost); err != nil {
		return fmt.Errorf("load posts: %w", err)
	}
	if err := loadOrdered(st, d.Comments, workers, AddComment); err != nil {
		return fmt.Errorf("load comments: %w", err)
	}
	err = loadOrdered(st, d.Likes, workers, func(tx *store.Txn, l *Like) error {
		return tx.AddEdge(l.Person, store.EdgeLikes, l.Message, l.CreationDate)
	})
	if err != nil {
		return fmt.Errorf("load likes: %w", err)
	}
	return nil
}

// loadOrdered loads one entity class in loadBatch-sized transactions.
// Workers claim batches by index and build them concurrently — buffering
// writes into a Txn touches no shared store state — and a committer drains
// the batches in index order, so the commit sequence is independent of the
// worker count. With workers <= 1 it degenerates to the plain sequential
// loop.
func loadOrdered[T any](st *store.Store, items []T, workers int, add func(tx *store.Txn, item *T) error) error {
	nb := (len(items) + loadBatch - 1) / loadBatch
	build := func(b int) (*store.Txn, error) {
		lo, hi := b*loadBatch, min((b+1)*loadBatch, len(items))
		tx := st.Begin()
		for i := lo; i < hi; i++ {
			if err := add(tx, &items[i]); err != nil {
				tx.Abort()
				return nil, err
			}
		}
		return tx, nil
	}
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		for b := 0; b < nb; b++ {
			tx, err := build(b)
			if err != nil {
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}

	type built struct {
		tx  *store.Txn
		err error
	}
	ready := make([]chan built, nb)
	for i := range ready {
		ready[i] = make(chan built, 1)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				tx, err := build(b)
				ready[b] <- built{tx, err}
			}
		}()
	}
	var firstErr error
	for b := 0; b < nb; b++ {
		r := <-ready[b]
		if firstErr != nil {
			// Drain remaining batches so the workers finish; their
			// uncommitted transactions are dropped.
			if r.tx != nil {
				r.tx.Abort()
			}
			continue
		}
		if r.err != nil {
			firstErr = r.err
			continue
		}
		if err := r.tx.Commit(); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

// PersonProps builds the store property list for a person.
func PersonProps(p *Person) store.Props {
	return store.Props{
		store.NewProp(store.PropFirstName, store.String(p.FirstName)),
		store.NewProp(store.PropLastName, store.String(p.LastName)),
		store.NewProp(store.PropGender, store.Int64(int64(p.Gender))),
		store.NewProp(store.PropBirthday, store.Int64(p.Birthday)),
		store.NewProp(store.PropCreationDate, store.Int64(p.CreationDate)),
		store.NewProp(store.PropLocationIP, store.String(p.LocationIP)),
		store.NewProp(store.PropBrowserUsed, store.String(p.Browser)),
		store.NewProp(store.PropSpeaks, store.String(strings.Join(p.Languages, ";"))),
		store.NewProp(store.PropEmail, store.String(strings.Join(p.Emails, ";"))),
		store.NewProp(store.PropCountry, store.Int64(int64(p.Country))),
	}
}

// AddPerson writes a person (node plus its dimension edges) into an open
// transaction; shared between the bulk loader and update U1.
func AddPerson(tx *store.Txn, p *Person) error {
	if err := tx.CreateNode(p.ID, PersonProps(p)); err != nil {
		return err
	}
	if err := tx.AddEdge(p.ID, store.EdgeIsLocatedIn, PlaceNodeID(p.Country), 0); err != nil {
		return err
	}
	for _, tag := range p.Interests {
		if err := tx.AddEdge(p.ID, store.EdgeHasInterest, TagNodeID(tag), 0); err != nil {
			return err
		}
	}
	if p.University >= 0 {
		uni := ids.DimensionID(ids.KindOrganisation, uint32(p.University))
		if err := tx.AddEdge(p.ID, store.EdgeStudyAt, uni, int64(p.ClassYear)); err != nil {
			return err
		}
	}
	if p.Company >= 0 {
		if err := tx.AddEdge(p.ID, store.EdgeWorkAt, CompanyNodeID(p.Company), int64(p.WorkFrom)); err != nil {
			return err
		}
	}
	return nil
}

// AddForum writes a forum into an open transaction (bulk load and U4).
func AddForum(tx *store.Txn, f *Forum) error {
	err := tx.CreateNode(f.ID, store.Props{
		store.NewProp(store.PropTitle, store.String(f.Title)),
		store.NewProp(store.PropCreationDate, store.Int64(f.CreationDate)),
	})
	if err != nil {
		return err
	}
	if err := tx.AddEdge(f.ID, store.EdgeHasModerator, f.Moderator, 0); err != nil {
		return err
	}
	for _, tag := range f.Tags {
		if err := tx.AddEdge(f.ID, store.EdgeHasTag, TagNodeID(tag), 0); err != nil {
			return err
		}
	}
	return nil
}

// PostProps builds the store property list for a post, exactly sized: the
// store keeps the list as the node's row (see store.Txn.CreateNode).
func PostProps(p *Post) store.Props {
	n := 8 // six common fields, then content and language
	if p.ImageFile != "" {
		n = 7 // six common fields, then the image file
	}
	props := append(make(store.Props, 0, n),
		store.NewProp(store.PropCreationDate, store.Int64(p.CreationDate)),
		store.NewProp(store.PropLength, store.Int64(int64(p.Length))),
		store.NewProp(store.PropBrowserUsed, store.String(p.Browser)),
		store.NewProp(store.PropLocationIP, store.String(p.LocationIP)),
		store.NewProp(store.PropCountry, store.Int64(int64(p.Country))),
		store.NewProp(store.PropTopic, store.Int64(int64(p.Topic))),
	)
	if p.ImageFile != "" {
		props = append(props, store.NewProp(store.PropImageFile, store.String(p.ImageFile)))
	} else {
		props = append(props,
			store.NewProp(store.PropContent, store.String(p.Content)),
			store.NewProp(store.PropLanguage, store.String(p.Language)),
		)
	}
	return props
}

// AddPost writes a post into an open transaction (bulk load and U6).
func AddPost(tx *store.Txn, p *Post) error {
	if err := tx.CreateNode(p.ID, PostProps(p)); err != nil {
		return err
	}
	// hasCreator carries the message creationDate as its stamp: this is the
	// materialised "messages of a person ordered by time" neighbourhood
	// that queries like Q2/Q9 navigate.
	if err := tx.AddEdge(p.ID, store.EdgeHasCreator, p.Creator, p.CreationDate); err != nil {
		return err
	}
	if err := tx.AddEdge(p.Forum, store.EdgeContainerOf, p.ID, p.CreationDate); err != nil {
		return err
	}
	if err := tx.AddEdge(p.ID, store.EdgeIsLocatedIn, PlaceNodeID(p.Country), 0); err != nil {
		return err
	}
	for _, tag := range p.Tags {
		if err := tx.AddEdge(p.ID, store.EdgeHasTag, TagNodeID(tag), 0); err != nil {
			return err
		}
	}
	return nil
}

// CommentProps builds the store property list for a comment.
func CommentProps(c *Comment) store.Props {
	return store.Props{
		store.NewProp(store.PropCreationDate, store.Int64(c.CreationDate)),
		store.NewProp(store.PropContent, store.String(c.Content)),
		store.NewProp(store.PropLength, store.Int64(int64(c.Length))),
		store.NewProp(store.PropBrowserUsed, store.String(c.Browser)),
		store.NewProp(store.PropLocationIP, store.String(c.LocationIP)),
		store.NewProp(store.PropCountry, store.Int64(int64(c.Country))),
		store.NewProp(store.PropTopic, store.Int64(int64(c.Topic))),
	}
}

// AddComment writes a comment into an open transaction (bulk load and U7).
func AddComment(tx *store.Txn, c *Comment) error {
	if err := tx.CreateNode(c.ID, CommentProps(c)); err != nil {
		return err
	}
	if err := tx.AddEdge(c.ID, store.EdgeHasCreator, c.Creator, c.CreationDate); err != nil {
		return err
	}
	if err := tx.AddEdge(c.ID, store.EdgeReplyOf, c.ReplyOf, c.CreationDate); err != nil {
		return err
	}
	if err := tx.AddEdge(c.ID, store.EdgeIsLocatedIn, PlaceNodeID(c.Country), 0); err != nil {
		return err
	}
	for _, tag := range c.Tags {
		if err := tx.AddEdge(c.ID, store.EdgeHasTag, TagNodeID(tag), 0); err != nil {
			return err
		}
	}
	return nil
}
