package store

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"ldbcsnb/internal/ids"
)

// Property rows are stored once: the node record, every view that sees it
// and every commit delta share one immutable, exactly sized row. These tests
// pin what makes that sharing safe.

func TestPropLayout(t *testing.T) {
	if n := unsafe.Sizeof(Prop{}); n != 16 {
		t.Fatalf("Prop is %d bytes, want 16 (a key beside a nested Value pads to 24)", n)
	}
	p := NewProp(PropLength, Int64(-7))
	if p.Key != PropLength || p.Val() != Int64(-7) {
		t.Fatalf("NewProp/Val round trip: %#v", p)
	}
	if got := NewProp(PropName, String("x")).Val().Str(); got != "x" {
		t.Fatalf("string round trip: %q", got)
	}
}

func commitOrFatal(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateOverBareEndpointFails pins the invariant the write-once
// property rows rest on: an edge to an ID nobody created materialises a bare
// record (no properties), and a later CreateNode of that ID loses with
// ErrExists instead of giving the record properties after the fact. A held
// view, a refreshed view and a compacted one all keep reading nil
// properties for it.
func TestCreateOverBareEndpointFails(t *testing.T) {
	s := New()
	a, bare := personID(1), personID(2)
	tx := s.Begin()
	if err := tx.CreateNode(a, Props{NewProp(PropFirstName, String("a"))}); err != nil {
		t.Fatal(err)
	}
	commitOrFatal(t, tx)
	held := s.CurrentView()

	tx = s.Begin()
	if err := tx.AddKnows(a, bare, 1); err != nil {
		t.Fatal(err)
	}
	commitOrFatal(t, tx)
	refreshed, ev := s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("view after the edge: %v, want a delta refresh", ev)
	}

	tx = s.Begin()
	if err := tx.CreateNode(bare, Props{NewProp(PropFirstName, String("late"))}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrExists) {
		t.Fatalf("CreateNode over a bare endpoint: %v, want ErrExists", err)
	}

	for name, v := range map[string]*SnapshotView{
		"held view":      held,
		"refreshed view": refreshed,
		"current view":   s.CurrentView(),
		"ViewAt":         s.ViewAt(s.LastCommit()),
	} {
		if ps, _ := v.Props(bare); ps != nil {
			t.Errorf("%s: Props(bare) = %#v, want nil", name, ps)
		}
		if got := v.Prop(bare, PropFirstName); !got.IsZero() {
			t.Errorf("%s: Prop(bare, firstName) = %#v, want absent", name, got)
		}
	}
	if held.Exists(bare) || !refreshed.Exists(bare) {
		t.Fatalf("bare endpoint visibility: held %v, refreshed %v", held.Exists(bare), refreshed.Exists(bare))
	}
	s.View(func(tx *Txn) {
		if ps, ok := tx.Props(bare); !ok || ps != nil {
			t.Errorf("txn: Props(bare) = %#v, %v, want nil, true", ps, ok)
		}
	})
}

// TestTxnAndViewPropsEqual compares every node's list on a Txn, the
// delta-refreshed cached view and a compacted view at the same timestamp,
// and checks that every list handed out is exactly sized.
func TestTxnAndViewPropsEqual(t *testing.T) {
	s := New()
	var nodes []ids.ID
	create := func(n uint32, props Props) {
		id := personID(n)
		tx := s.Begin()
		if err := tx.CreateNode(id, props); err != nil {
			t.Fatal(err)
		}
		commitOrFatal(t, tx)
		nodes = append(nodes, id)
	}
	create(1, Props{NewProp(PropFirstName, String("a"))})
	// Spare capacity: the store must keep an exactly sized copy.
	create(2, append(make(Props, 0, 8), NewProp(PropFirstName, String("b")), NewProp(PropLength, Int64(2))))
	create(3, nil)
	s.CurrentView()
	create(4, append(make(Props, 0, 4), NewProp(PropLength, Int64(4))))

	refreshed, fresh := s.CurrentView(), s.ViewAt(s.LastCommit())
	s.View(func(tx *Txn) {
		for _, id := range nodes {
			want, ok := tx.Props(id)
			if !ok {
				t.Fatalf("txn: %v missing", id)
			}
			if cap(want) != len(want) {
				t.Errorf("txn: Props(%v) has cap %d, len %d", id, cap(want), len(want))
			}
			for name, v := range map[string]*SnapshotView{"refreshed": refreshed, "compacted": fresh} {
				got, ok := v.Props(id)
				if !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("%s view: Props(%v) = %#v, txn %#v", name, id, got, want)
				}
				if cap(got) != len(got) {
					t.Errorf("%s view: Props(%v) has cap %d, len %d", name, id, cap(got), len(got))
				}
			}
		}
	})
}

// TestHeldViewKindListsStable holds a compacted view and a refreshed one
// across commits and refreshes that append to the kind list they share a
// prefix of with the store.
func TestHeldViewKindListsStable(t *testing.T) {
	s := New()
	commitPersons := func(from, to uint32) {
		tx := s.Begin()
		for n := from; n < to; n++ {
			if err := tx.CreateNode(personID(n), nil); err != nil {
				t.Fatal(err)
			}
		}
		commitOrFatal(t, tx)
	}
	commitPersons(0, 5)
	v1 := s.CurrentView()
	mid := s.Begin()
	want1 := append([]ids.ID(nil), v1.NodesOfKind(ids.KindPerson)...)
	wantMid := append([]ids.ID(nil), mid.NodesOfKind(ids.KindPerson)...)
	if len(want1) != 5 || !reflect.DeepEqual(want1, wantMid) {
		t.Fatalf("view %v, txn %v", want1, wantMid)
	}

	commitPersons(5, 8)
	v2, ev := s.AcquireView()
	if ev != ViewRefreshed {
		t.Fatalf("second view: %v, want a delta refresh", ev)
	}
	want2 := append([]ids.ID(nil), v2.NodesOfKind(ids.KindPerson)...)
	if len(want2) != 8 {
		t.Fatalf("refreshed view sees %d persons, want 8", len(want2))
	}
	// The refresh appended: it must have moved off the store's array
	// rather than writing into the store's spare capacity.
	s.kindMu.RLock()
	storeList := s.byKind[ids.KindPerson]
	s.kindMu.RUnlock()
	if &v2.NodesOfKind(ids.KindPerson)[0] == &storeList[0] {
		t.Fatal("refreshed view's kind list shares the store's array")
	}

	commitPersons(8, 20)
	s.CurrentView()
	commitPersons(20, 21)
	s.CurrentView()

	for name, got := range map[string][]ids.ID{
		"held compacted view": v1.NodesOfKind(ids.KindPerson),
		"held refreshed view": v2.NodesOfKind(ids.KindPerson),
		"held transaction":    mid.NodesOfKind(ids.KindPerson),
	} {
		want := want1
		if name == "held refreshed view" {
			want = want2
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NodesOfKind = %v, want %v", name, got, want)
		}
	}
	if got := len(s.CurrentView().NodesOfKind(ids.KindPerson)); got != 21 {
		t.Fatalf("current view sees %d persons, want 21", got)
	}
}
