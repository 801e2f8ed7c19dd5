package store

import (
	"fmt"
	"testing"
	"testing/quick"

	"ldbcsnb/internal/ids"
)

func TestGCPrunesOldVersions(t *testing.T) {
	s := New()
	id := personID(700)
	tx := s.Begin()
	tx.CreateNode(id, Props{NewProp(PropFirstName, String("v0"))})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		tx := s.Begin()
		tx.SetProp(id, PropFirstName, String("v"+string(rune('1'+i))))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.VersionCount(); got != 10 {
		t.Fatalf("versions before GC: %d", got)
	}
	mid := s.Begin() // snapshot at the newest commit
	horizon := mid.Snapshot()
	reclaimed := s.GC(horizon)
	if reclaimed != 9 {
		t.Fatalf("reclaimed %d, want 9", reclaimed)
	}
	if got := s.VersionCount(); got != 1 {
		t.Fatalf("versions after GC: %d", got)
	}
	// The horizon snapshot still reads the correct value.
	if got := mid.Prop(id, PropFirstName).Str(); got != "v9" {
		t.Fatalf("post-GC read %q", got)
	}
}

func TestGCKeepsVersionsAboveHorizon(t *testing.T) {
	s := New()
	id := personID(701)
	tx := s.Begin()
	tx.CreateNode(id, Props{NewProp(PropFirstName, String("old"))})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	oldSnap := s.Begin() // must keep seeing "old"
	horizon := oldSnap.Snapshot()
	tx = s.Begin()
	tx.SetProp(id, PropFirstName, String("new"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if reclaimed := s.GC(horizon); reclaimed != 0 {
		t.Fatalf("reclaimed %d versions still visible to the horizon", reclaimed)
	}
	if got := oldSnap.Prop(id, PropFirstName).Str(); got != "old" {
		t.Fatalf("old snapshot reads %q after GC", got)
	}
}

// TestGCPreservesSurvivingEdgeOrder pins that GC touches only version
// chains: every adjacency entry of a node whose versions it prunes survives,
// in insertion order — the order both read paths report.
func TestGCPreservesSurvivingEdgeOrder(t *testing.T) {
	s := New()
	a := personID(714)
	peers := []ids.ID{personID(715), personID(716), personID(717)}
	tx := s.Begin()
	tx.CreateNode(a, Props{NewProp(PropFirstName, String("v0"))})
	for _, p := range peers {
		tx.CreateNode(p, nil)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var want []Edge
	for i, p := range peers {
		tx := s.Begin()
		tx.AddEdge(a, EdgeLikes, p, int64(i))
		tx.SetProp(a, PropFirstName, String(fmt.Sprint("v", i+1)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(want, Edge{To: p, Stamp: int64(i)})
	}
	if reclaimed := s.GC(s.LastCommit()); reclaimed != len(peers) {
		t.Fatalf("reclaimed %d, want the %d superseded versions", reclaimed, len(peers))
	}
	s.View(func(rt *Txn) {
		if got := rt.Out(a, EdgeLikes); !edgesEqual(got, want) {
			t.Fatalf("post-GC order: %v, want %v", got, want)
		}
	})
	if got := s.ViewAt(s.LastCommit()).Out(a, EdgeLikes); !edgesEqual(got, want) {
		t.Fatalf("post-GC view order: %v, want %v", got, want)
	}
}

func TestGCQuickInvariant(t *testing.T) {
	// Property: after GC at the current watermark, every node has exactly
	// one version and reads are unchanged.
	err := quick.Check(func(nUpdates uint8) bool {
		s := New()
		id := personID(702)
		tx := s.Begin()
		tx.CreateNode(id, Props{NewProp(PropLength, Int64(0))})
		if tx.Commit() != nil {
			return false
		}
		n := int(nUpdates % 20)
		for i := 1; i <= n; i++ {
			tx := s.Begin()
			tx.SetProp(id, PropLength, Int64(int64(i)))
			if tx.Commit() != nil {
				return false
			}
		}
		var want int64
		s.View(func(tx *Txn) { want = tx.Prop(id, PropLength).Int() })
		s.GC(s.LastCommit())
		if s.VersionCount() != 1 {
			return false
		}
		var got int64
		s.View(func(tx *Txn) { got = tx.Prop(id, PropLength).Int() })
		return got == want
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
