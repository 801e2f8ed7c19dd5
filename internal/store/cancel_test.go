package store

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ldbcsnb/internal/ids"
)

// Cooperative cancellation (cancel.go) and closed-store sentinel tests:
// WithCancel views must unwind mid-scan once their context is done and be
// transparent otherwise, and commits racing Persistent.Close must either
// be durable or fail with ErrStoreClosed — never silently dropped.

// cancelFixture builds a store with one person holding enough knows edges
// that a scan loop comfortably crosses the cancelEvery polling stride.
func cancelFixture(t *testing.T) (*Store, ids.ID) {
	t.Helper()
	s := New()
	center := personID(1)
	tx := s.Begin()
	if err := tx.CreateNode(center, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint32(2); i < 40; i++ {
		if err := tx.CreateNode(personID(i), nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddEdge(center, EdgeKnows, personID(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, center
}

// scanUntilDone drives Out calls through the cancellable view until the
// cooperative check unwinds it (or the call budget runs out), returning
// the error CatchCanceled produced.
func scanUntilDone(v *SnapshotView, id ids.ID, calls int) (err error) {
	defer CatchCanceled(&err)
	for i := 0; i < calls; i++ {
		_ = v.Out(id, EdgeKnows)
	}
	return nil
}

func TestWithCancelUnwindsMidScan(t *testing.T) {
	s, center := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the first stride check must fire
	cv := s.CurrentView().WithCancel(ctx)
	err := scanUntilDone(cv, center, 10*cancelEvery)
	if !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("scan over canceled ctx: got %v, want ErrQueryCanceled", err)
	}
}

func TestWithCancelLiveContextCompletes(t *testing.T) {
	s, center := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cv := s.CurrentView().WithCancel(ctx)
	if err := scanUntilDone(cv, center, 10*cancelEvery); err != nil {
		t.Fatalf("scan under live ctx failed: %v", err)
	}
	// The derived view must read the same data as the shared one.
	if got, want := len(cv.Out(center, EdgeKnows)), len(s.CurrentView().Out(center, EdgeKnows)); got != want {
		t.Fatalf("derived view degree %d, shared view %d", got, want)
	}
}

func TestWithCancelDeadline(t *testing.T) {
	s, center := cancelFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cv := s.CurrentView().WithCancel(ctx)
	if err := scanUntilDone(cv, center, 10*cancelEvery); !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("scan past deadline: got %v, want ErrQueryCanceled", err)
	}
}

func TestWithCancelUncancellableIsIdentity(t *testing.T) {
	s, _ := cancelFixture(t)
	v := s.CurrentView()
	if got := v.WithCancel(context.Background()); got != v {
		t.Fatal("WithCancel(Background) should return the view unchanged")
	}
	if got := v.WithCancel(nil); got != v {
		t.Fatal("WithCancel(nil) should return the view unchanged")
	}
}

func TestCatchCanceledRepanicsForeignValues(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign panic swallowed by CatchCanceled")
		}
	}()
	var err error
	defer CatchCanceled(&err)
	panic("genuine query bug")
}

func TestMarkClosedFailsCommitsAndCheckedViews(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.CreateNode(personID(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	s.MarkClosed()
	s.MarkClosed() // idempotent

	tx = s.Begin()
	if err := tx.CreateNode(personID(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("commit after MarkClosed: got %v, want ErrStoreClosed", err)
	}
	if _, _, err := s.AcquireViewChecked(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("AcquireViewChecked after MarkClosed: got %v, want ErrStoreClosed", err)
	}
	if !s.Closed() {
		t.Fatal("Closed() false after MarkClosed")
	}
	// Already-acquired views stay readable: reads never depend on the WAL.
	if !s.CurrentView().Exists(personID(1)) {
		t.Fatal("pre-close commit invisible in post-close view")
	}
}

// TestCommitVsCloseDurability is the commit-vs-Close regression test: with
// committers racing Persistent.Close, every Commit that returns nil must
// be recovered by the next Open (flush-on-close durability), and every
// commit arriving after the shutdown fence must fail with ErrStoreClosed —
// the pre-fence behaviour let such commits return nil while their redo
// records were silently dropped by the draining lanes.
func TestCommitVsCloseDurability(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, PersistOptions{CheckpointBytes: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	acked := make([][]ids.ID, writers) // per-writer nodes whose Commit returned nil
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint32(0); ; i++ {
				id := ids.Compose(ids.KindPerson, int64(w+1), i)
				tx := p.Store.Begin()
				if err := tx.CreateNode(id, Props{NewProp(PropCreationDate, Int64(int64(i)))}); err != nil {
					t.Errorf("writer %d: CreateNode: %v", w, err)
					return
				}
				err := tx.Commit()
				if errors.Is(err, ErrStoreClosed) {
					return
				}
				if err != nil {
					t.Errorf("writer %d: Commit: %v", w, err)
					return
				}
				acked[w] = append(acked[w], id)
			}
		}(w)
	}

	// Let the writers build momentum, then close under them.
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	// A commit after the fence must fail cleanly, not race the dead lanes.
	tx := p.Store.Begin()
	if err := tx.CreateNode(personID(999999), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("commit after Close: got %v, want ErrStoreClosed", err)
	}

	total := 0
	for _, ids := range acked {
		total += len(ids)
	}
	if total == 0 {
		t.Fatal("no commits were acknowledged before Close; race not exercised")
	}

	rec, _, err := Open(dir, PersistOptions{CheckpointBytes: -1}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	rv := rec.Store.CurrentView()
	for w, list := range acked {
		for _, id := range list {
			if !rv.Exists(id) {
				t.Fatalf("writer %d: acknowledged commit of %v lost across Close/Open", w, id)
			}
		}
	}
	if got, want := rec.Store.LastCommit(), p.Store.LastCommit(); got != want {
		t.Fatalf("recovered clock %d != live clock %d", got, want)
	}
}
