package store

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// randomBulk is a bulk-load part on s over pop: twenty new persons, edges
// of every randomised type among them and pop (knows pairs repeat), and one
// edge to a post nobody creates, a bare endpoint. It returns the part and
// the population with the new persons and the bare endpoint.
func randomBulk(t *testing.T, s *Store, r *xrand.Rand, pop []ids.ID, step int) (*Txn, []ids.ID) {
	t.Helper()
	b := s.Begin()
	for i := 0; i < 20; i++ {
		id := ids.Compose(ids.KindPerson, int64(step), uint32(i))
		props := Props{
			NewProp(PropFirstName, String([]string{"ada", "bob", "eve"}[r.Intn(3)])),
			NewProp(PropCreationDate, Int64(int64(step*100+i))),
		}
		if err := b.CreateNode(id, props); err != nil {
			t.Fatal(err)
		}
		pop = append(pop, id)
	}
	for i := 0; i < 60; i++ {
		a, c := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		var err error
		if et := viewEdgeTypes[r.Intn(len(viewEdgeTypes))]; et == EdgeKnows {
			err = b.AddKnows(a, c, int64(i))
		} else {
			err = b.AddEdge(a, et, c, int64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	bare := ids.Compose(ids.KindPost, int64(step), 999)
	if err := b.AddEdge(pop[0], EdgeLikes, bare, 1); err != nil {
		t.Fatal(err)
	}
	return b, append(pop, bare)
}

// A bulk load is one commit that the commit log has no write set for: the
// cached view of an older clock rebuilds, and commits after the load
// refresh it again.
func TestBulkLoadInvalidatesView(t *testing.T) {
	s := New()
	r := xrand.New(3)
	var pop []ids.ID
	for step := 1; step <= 4; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
	}
	s.CurrentView()
	pop = randomGraphStep(t, s, r, pop, 5) // pending for the view's refresh
	b, pop := randomBulk(t, s, r, pop, 100)
	if err := s.Load(b); err != nil {
		t.Fatal(err)
	}
	v, ev := s.AcquireView()
	if ev != ViewRebuilt || v.Timestamp() != s.LastCommit() {
		t.Fatalf("first acquisition after a bulk load: %v at %d, want a rebuild at %d", ev, v.Timestamp(), s.LastCommit())
	}
	s.View(func(tx *Txn) { assertViewMatchesTxn(t, s, v, tx, pop) })
	pop = randomGraphStep(t, s, r, pop, 6)
	v, ev = s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("acquisition after a commit past the bulk load: %v, want a refresh", ev)
	}
	assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	s.View(func(tx *Txn) { assertViewMatchesTxn(t, s, v, tx, pop) })
}

// A durable bulk load writes no WAL record: its image becomes a checkpoint.
// A crash before the checkpoint's rename recovers the store as it was
// before the load, one after it the whole image, and commits after the load
// replay on top of it.
func TestDurableBulkLoad(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	live := New()
	rl, rd := xrand.New(8), xrand.New(8)
	var pop []ids.ID
	for step := 1; step <= 5; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	b, bulkPop := randomBulk(t, p.Store, xrand.New(9), pop, 100)
	twin, _ := randomBulk(t, live, xrand.New(9), pop, 100)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	walBytes := p.Stats().WALBytes
	before, after := filepath.Join(t.TempDir(), "before"), filepath.Join(t.TempDir(), "after")
	p.hookBeforeRename = func() { copyDir(t, dir, before) }
	if err := p.Load(b); err != nil {
		t.Fatal(err)
	}
	p.hookBeforeRename = nil
	copyDir(t, dir, after)
	if got := p.Stats().WALBytes; got != walBytes {
		t.Fatalf("bulk load wrote %d WAL bytes", got-walBytes)
	}
	if p.CheckpointTS() != p.LastCommit() {
		t.Fatalf("checkpoint at %d after a bulk load at %d", p.CheckpointTS(), p.LastCommit())
	}

	re, info := reopen(t, before, manualOpts())
	if info.CheckpointTS != 0 || info.Clock != live.LastCommit() {
		t.Fatalf("crash before the rename recovered %+v, want the clock before the load (%d)", info, live.LastCommit())
	}
	assertStoresEqual(t, live, re.Store, pop)

	if err := live.Load(twin); err != nil {
		t.Fatal(err)
	}
	re, info = reopen(t, after, manualOpts())
	if info.CheckpointTS != live.LastCommit() || info.Replayed != 0 {
		t.Fatalf("crash after the load recovered %+v, want checkpoint %d and nothing replayed", info, live.LastCommit())
	}
	assertStoresEqual(t, live, re.Store, bulkPop)

	for step := 6; step <= 10; step++ {
		bulkPop = growBoth(t, live, p.Store, rl, rd, bulkPop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, info = reopen(t, dir, manualOpts())
	if info.Replayed != 5 {
		t.Fatalf("reopen replayed %d records, want the 5 commits after the load", info.Replayed)
	}
	assertStoresEqual(t, live, re.Store, bulkPop)
}

// A bulk load racing committers and readers. Commits wait for the load
// (on a durable store, for its checkpoint), then go on from its timestamp;
// the views stay equal to rebuilds, and the directory reopens to the store
// the run left.
func TestBulkLoadRacesCommitters(t *testing.T) {
	for _, durable := range []bool{false, true} {
		s := New()
		dir := t.TempDir()
		if durable {
			p, _, err := Open(dir, PersistOptions{CheckpointBytes: -1, WALSync: SyncFlush}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			s = p.Store
		}
		b, _ := randomBulk(t, s, xrand.New(4), []ids.ID{personID(1)}, 100)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := uint32(0); !stop.Load(); i++ {
					tx := s.Begin()
					id := ids.Compose(ids.KindComment, int64(w), i)
					if err := errors.Join(tx.CreateNode(id, nil), tx.AddEdge(id, EdgeHasCreator, personID(1), 0), tx.Commit()); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for !stop.Load() {
					s.CurrentView()
				}
			}()
		}
		for s.LastCommit() < 50 {
		}
		if err := s.Load(b); err != nil {
			t.Fatal(err)
		}
		for c := s.LastCommit(); s.LastCommit() < c+50; {
		}
		stop.Store(true)
		wg.Wait()
		v := s.CurrentView()
		assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
		if !durable {
			continue
		}
		if err := s.durable.Close(); err != nil {
			t.Fatal(err)
		}
		re, _ := reopen(t, dir, manualOpts())
		var pop []ids.ID
		s.View(func(tx *Txn) {
			for _, k := range []ids.Kind{ids.KindPerson, ids.KindComment} {
				pop = append(pop, tx.ScanKind(k).IDs()...)
			}
		})
		assertStoresEqual(t, s, re.Store, pop)
	}
}
