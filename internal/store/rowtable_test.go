package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// TestNodeRecLayout pins the point of the sparse row table: a node record
// is an ID, a commit stamp and two slice headers, not thirty-two. A field added to nodeRec
// or adjacency that pushes the record out of the 64-byte size class costs
// every stored node, so it has to show up here first.
func TestNodeRecLayout(t *testing.T) {
	if n := unsafe.Sizeof(nodeRec{}); n > 64 {
		t.Fatalf("nodeRec is %d bytes, want <= 64 (the dense [edgeTypeMax] arrays made it 800)", n)
	}
	if n := unsafe.Sizeof(adjRow{}); n != 32 {
		t.Fatalf("adjRow is %d bytes, want 32", n)
	}
	// Edges are insert-only, so an entry is peer, stamp and commit and no
	// deletion timestamp: every adjacency entry pays for each field.
	if n := unsafe.Sizeof(edgeRec{}); n != 24 {
		t.Fatalf("edgeRec is %d bytes, want 24", n)
	}
}

// denseModel is the layout the row table replaced — one list per (type,
// direction) slot for every node, indexed by rowKey — with the install rule
// written directly against it. It is the reference
// TestRowTableMatchesDenseReference compares every read path to.
type denseModel map[ids.ID]*[2 * edgeTypeMax][]edgeRec

func (m denseModel) node(id ids.ID) *[2 * edgeTypeMax][]edgeRec {
	n := m[id]
	if n == nil {
		n = new([2 * edgeTypeMax][]edgeRec)
		m[id] = n
	}
	return n
}

func (m denseModel) install(from ids.ID, t EdgeType, to ids.ID, stamp, ts int64, in bool) {
	l := &m.node(from)[rowKey(t, in)]
	*l = append(*l, edgeRec{peer: to, stamp: stamp, commit: ts})
}

func (m denseModel) visible(id ids.ID, t EdgeType, in bool, ts int64) []Edge {
	var out []Edge
	if n := m[id]; n != nil {
		for _, e := range n[rowKey(t, in)] {
			if e.visibleAt(ts) {
				out = append(out, Edge{To: e.peer, Stamp: e.stamp})
			}
		}
	}
	return out
}

// adjReader is the read surface Txn and SnapshotView share.
type adjReader interface {
	Out(ids.ID, EdgeType) []Edge
	In(ids.ID, EdgeType) []Edge
	OutDegree(ids.ID, EdgeType) int
	InDegree(ids.ID, EdgeType) int
}

func (m denseModel) check(t *testing.T, what string, r adjReader, pool []ids.ID, ts int64) {
	t.Helper()
	for _, id := range pool {
		for et := EdgeType(1); et < edgeTypeMax; et++ {
			for _, in := range []bool{false, true} {
				got, deg := r.Out(id, et), r.OutDegree(id, et)
				if in {
					got, deg = r.In(id, et), r.InDegree(id, et)
				}
				want := m.visible(id, et, in, ts)
				if deg != len(want) {
					t.Fatalf("ts %d %s: %v %v in=%v: degree %d, model %d", ts, what, id, et, in, deg, len(want))
				}
				if len(got) != len(want) {
					t.Fatalf("ts %d %s: %v %v in=%v: %d edges, model %d", ts, what, id, et, in, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("ts %d %s: %v %v in=%v entry %d: %+v, model %+v", ts, what, id, et, in, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRowTableMatchesDenseReference drives a seeded history of edge
// installs and GC passes over all fifteen types in both directions through
// a durable store, and after every commit compares the row tables with the
// dense reference on each path that reads or rebuilds them: Txn reads, a
// rebuilt view, a checkpoint -> restore round trip (the arena-carved
// tables) and recovery's lean replay of the whole WAL. The
// history holds what the sparse layout can get wrong: parallel edges,
// symmetric and directed knows, a node gaining several rows inside one
// commit (each new row moves the table under ref), and endpoints that were
// never created, which installEdge materialises as bare records.
func TestRowTableMatchesDenseReference(t *testing.T) {
	dir := t.TempDir()
	opts := manualOpts()
	opts.KeepSegments = true
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Store

	var pool []ids.ID
	for i := uint32(1); i <= 5; i++ {
		pool = append(pool, personID(i), postID(i))
	}
	tx := s.Begin()
	for _, id := range pool[:6] { // pool[6:] stay bare endpoints
		if err := tx.CreateNode(id, Props{NewProp(PropFirstName, String("ada"))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	model := denseModel{}
	r := xrand.New(18)
	pick := func() ids.ID { return pool[r.Intn(len(pool))] }
	parallel := 0
	for step := 0; step < 40; step++ {
		ts := s.LastCommit() + 1
		tx := s.Begin()
		add := func(from ids.ID, et EdgeType, to ids.ID, sym bool) {
			stamp := int64(r.Intn(1000))
			var err error
			if sym {
				err = tx.AddKnows(from, to, stamp)
				model.install(from, et, to, stamp, ts, false)
				model.install(to, et, from, stamp, ts, false)
			} else {
				err = tx.AddEdge(from, et, to, stamp)
				model.install(from, et, to, stamp, ts, false)
				model.install(to, et, from, stamp, ts, true)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1+r.Intn(5); i++ {
			switch from, to := pick(), pick(); r.Intn(4) {
			case 0:
				add(from, EdgeKnows, to, true)
			case 1: // one node gains several rows in one commit
				first := 1 + r.Intn(int(edgeTypeMax)-1)
				for k := 0; k < 4; k++ {
					add(from, EdgeType(1+(first+k)%(int(edgeTypeMax)-1)), pick(), false)
				}
			case 2: // parallel edges
				et := EdgeType(1 + r.Intn(int(edgeTypeMax)-1))
				add(from, et, to, false)
				add(from, et, to, false)
				parallel++
			default:
				add(from, EdgeType(1+r.Intn(int(edgeTypeMax)-1)), to, false)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := s.LastCommit(); got != ts {
			t.Fatalf("step %d: clock %d, want %d", step, got, ts)
		}
		s.View(func(rt *Txn) { model.check(t, "txn", rt, pool, ts) })
		view := s.buildView(ts)
		model.check(t, "rebuilt view", view, pool, ts)

		ckDir := t.TempDir()
		path, err := writeCheckpoint(ckDir, view, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored := New()
		if _, err := loadCheckpoint(restored, path); err != nil {
			t.Fatal(err)
		}
		restored.View(func(rt *Txn) { model.check(t, "restored checkpoint", rt, pool, ts) })

		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		image := t.TempDir()
		copyDir(t, dir, image)
		re, info := reopen(t, image, opts)
		if info.CheckpointTS != 0 || info.Replayed != int(ts) {
			t.Fatalf("step %d: want a full lean replay of %d records, got %+v", step, ts, info)
		}
		re.View(func(rt *Txn) { model.check(t, "replayed WAL", rt, pool, ts) })
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(model) != len(pool) || parallel < 5 {
		t.Fatalf("thin history: touched %d of %d nodes, %d parallel pairs", len(model), len(pool), parallel)
	}
}

// TestCheckpointRejectsBadRowTable corrupts the adjacency section of a
// valid checkpoint two ways the restore used to accept: a node announcing
// more lists than (type, direction) pairs exist, and the same pair
// announced twice (the second list used to overwrite the first silently).
func TestCheckpointRejectsBadRowTable(t *testing.T) {
	s := New()
	a, b := personID(1), personID(2)
	tx := s.Begin()
	for _, id := range []ids.ID{a, b} {
		if err := tx.CreateNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	// a: out-knows [b], out-likes [b] — two list headers with equal payloads.
	if err := tx.AddEdge(a, EdgeKnows, b, 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(a, EdgeLikes, b, 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	path, err := writeCheckpoint(t.TempDir(), s.CurrentView(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Node a is the first record: header(8) clock(8) nDict(4, empty) nNodes(4)
	// id(8) nProps(2) put nLists at offset 34 and the first list header at 35
	// (type, dir, count u32, then one two-varint entry); the second follows.
	const nListsOff = 34
	secondHdr := nListsOff + 1 + 6
	for i := 0; i < 2; i++ {
		_, n := binary.Uvarint(data[secondHdr:])
		secondHdr += n
	}
	if data[nListsOff] != 2 || EdgeType(data[nListsOff+1]) != EdgeKnows || EdgeType(data[secondHdr]) != EdgeLikes {
		t.Fatalf("checkpoint layout moved: nLists %d, headers %d %d", data[nListsOff], data[nListsOff+1], data[secondHdr])
	}
	for name, mutate := range map[string]func([]byte){
		"too many lists": func(d []byte) { d[nListsOff] = 31 },
		"repeated list":  func(d []byte) { d[secondHdr] = byte(EdgeKnows) },
	} {
		bad := append([]byte(nil), data...)
		mutate(bad)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
		badPath := filepath.Join(t.TempDir(), filepath.Base(path))
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(New(), badPath); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
