package schema

import (
	"errors"
	"fmt"
	"strings"
	"sync"
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

// loadBatch is the number of entities per bulk part: the unit the load's
// workers claim.
const loadBatch = 2000

// Load bulk-loads a dataset into the store as one commit (store.Store.Load).
// Call LoadDimensions first.
func Load(st *store.Store, d *Dataset) error {
	return LoadParallel(st, d, 1)
}

// LoadParallel is Load with the facts written by up to workers goroutines
// (property construction and string interning dominate that cost). The
// loaded store is the same for any worker count: see Parts.
func LoadParallel(st *store.Store, d *Dataset, workers int) error {
	parts, err := Parts(st, d, workers)
	if err != nil {
		return err
	}
	if err := st.Load(parts...); err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	return nil
}

// Parts writes a dataset's facts into write transactions on st for
// store.Store.Load, through the Add* functions the update stream uses. Each
// entity class is cut into loadBatch-entity parts that up to workers
// goroutines write concurrently; the parts come back in class and batch
// order, so their facts, and the store loaded from them, do not depend on
// the worker count. Classes go in referential order: persons before knows,
// messages before likes.
func Parts(st *store.Store, d *Dataset, workers int) ([]*store.Txn, error) {
	var jobs []func(*store.Txn) error
	jobs = batches(jobs, d.Persons, AddPerson)
	jobs = batches(jobs, d.Knows, func(tx *store.Txn, k *Knows) error {
		return tx.AddKnows(k.A, k.B, k.CreationDate)
	})
	jobs = batches(jobs, d.Forums, AddForum)
	jobs = batches(jobs, d.Memberships, func(tx *store.Txn, m *Membership) error {
		return tx.AddEdge(m.Forum, store.EdgeHasMember, m.Person, m.JoinDate)
	})
	jobs = batches(jobs, d.Posts, AddPost)
	jobs = batches(jobs, d.Comments, AddComment)
	jobs = batches(jobs, d.Likes, func(tx *store.Txn, l *Like) error {
		return tx.AddEdge(l.Person, store.EdgeLikes, l.Message, l.CreationDate)
	})

	parts := make([]*store.Txn, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, len(jobs))); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < len(jobs); j = int(next.Add(1)) - 1 {
				parts[j] = st.Begin()
				errs[j] = jobs[j](parts[j])
			}
		}()
	}
	wg.Wait()
	return parts, errors.Join(errs...)
}

// batches appends one job per loadBatch items, each writing its items with add.
func batches[T any](jobs []func(*store.Txn) error, items []T, add func(*store.Txn, *T) error) []func(*store.Txn) error {
	for lo := 0; lo < len(items); lo += loadBatch {
		batch := items[lo:min(lo+loadBatch, len(items))]
		jobs = append(jobs, func(tx *store.Txn) error {
			for i := range batch {
				if err := add(tx, &batch[i]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return jobs
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
