package driver

import (
	"testing"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// One rebuild between two clients: the client that rebuilds books a
// rebuild, and the other client's next acquisition, which returns the new
// era without rebuilding it, is booked apart from the hits and refreshes.
func TestAcquireBooksAnotherReadersRebuild(t *testing.T) {
	st := store.New()
	commit := func(seq uint32) {
		tx := st.Begin()
		if err := tx.CreateNode(ids.Compose(ids.KindPerson, 1, seq), nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(0)
	st.SetViewCompactThreshold(0) // every commit after a view drops its cursor: the next view is a rebuild

	rep := &MixedReport{}
	var a, b eraTracker
	steps := []struct {
		name   string
		client *eraTracker
		commit bool
		want   acquireKind
	}{
		{"a builds the first view", &a, false, acquiredRebuilt},
		{"b's first acquisition hits it", &b, false, acquiredCached},
		{"b rebuilds after a commit", &b, true, acquiredRebuilt},
		{"a finds b's new era", &a, false, acquiredNewEra},
		{"a hits it again", &a, false, acquiredCached},
	}
	for i, s := range steps {
		if s.commit {
			commit(uint32(i + 1))
		}
		v, ev := st.AcquireView()
		got := s.client.kind(v, ev)
		if got != s.want {
			t.Fatalf("%s: booked as %d, want %d", s.name, got, s.want)
		}
		addAcquire(rep, got, time.Millisecond)
	}
	if rep.ViewAcquire.Count != 5 || rep.ViewRebuild.Count != 2 || rep.ViewNewEra.Count != 1 || rep.ViewRefresh.Count != 2 {
		t.Fatalf("booked %d acquisitions: %d rebuilds, %d new eras, %d refreshes or hits; want 5: 2, 1, 2",
			rep.ViewAcquire.Count, rep.ViewRebuild.Count, rep.ViewNewEra.Count, rep.ViewRefresh.Count)
	}
}
