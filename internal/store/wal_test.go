package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// TestWALCorruptInsideRotatedSegment extends the torn-write coverage to
// the segmented on-disk log: a CRC failure inside a sealed (rotated,
// non-final) segment is not a recoverable torn tail — recovery must stop
// at the bad record and the error must name the segment and satisfy
// errors.Is(err, ErrCorrupt), so an operator knows which file to restore.
func TestWALCorruptInsideRotatedSegment(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointBytes: -1, SegmentBytes: 256}
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(31)
	var pop []ids.ID
	for step := 1; step <= 6; step++ {
		pop = randomGraphStep(t, p.Store, r, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := scanSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 rotated segments, got %d (%v)", len(segs), err)
	}
	victim := segs[1] // sealed mid-chain segment
	data, err := os.ReadFile(victim.path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+12] ^= 0xFF // flip a payload byte of its first record
	if err := os.WriteFile(victim.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, PersistOptions{CheckpointBytes: -1}, nil)
	if err == nil {
		t.Fatal("recovery accepted a corrupt sealed segment")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(victim.path)) {
		t.Fatalf("error does not report the corrupt segment: %v", err)
	}
}

// edgeLogFixture writes a log of one record per segment — ts 1, 2: two
// persons; ts 3: a likes edge between them; ts 4: a knows edge between
// them; ts 5: a third person — stopping after the first n, and returns the
// closed directory and its segments.
func edgeLogFixture(t *testing.T, n int) (string, []segmentFile) {
	t.Helper()
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = segHeaderSize + 1 // every record after the first rotates
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := personID(1), personID(2)
	steps := []func(tx *Txn) error{
		func(tx *Txn) error { return tx.CreateNode(a, nil) },
		func(tx *Txn) error { return tx.CreateNode(b, nil) },
		func(tx *Txn) error { return tx.AddEdge(a, EdgeLikes, b, 7) },
		func(tx *Txn) error { return tx.AddKnows(a, b, 8) },
		func(tx *Txn) error { return tx.CreateNode(personID(3), nil) },
	}
	for _, step := range steps[:n] {
		tx := p.Begin()
		if err := step(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := scanSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) != n {
		t.Fatalf("want %d one-record segments, got %d (%v)", n, len(segs), err)
	}
	return dir, segs
}

// edgeTypeOff is the offset of the edge-type byte in a payload whose first
// op is an add-edge: ts:u64 nOps:u32 kind:u8 from:u64 type:u8.
const edgeTypeOff = 8 + 4 + 1 + 8

// patchEdgeType overwrites the edge type of the first op of the segment's
// first record and re-stamps the record's CRC: a record only the decoder's
// own validation can reject.
func patchEdgeType(t *testing.T, path string, typ byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[segHeaderSize:]
	payload := rec[8 : 8+binary.LittleEndian.Uint32(rec)]
	payload[edgeTypeOff] = typ
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirImage reads every file under dir into a path -> contents map, so a
// test can tell whether a failed Open left the directory as it found it.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// openRejects asserts that Open fails on dir with ErrCorrupt naming the
// segment and record, and leaves every file in dir untouched.
func openRejects(t *testing.T, what, dir string, seg segmentFile) {
	t.Helper()
	before := dirImage(t, dir)
	_, _, err := Open(dir, manualOpts(), nil)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(seg.path)+": record 1") {
		t.Fatalf("%s: want ErrCorrupt naming the segment and record, got %v", what, err)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("%s: the failed Open changed the directory", what)
	}
}

// TestReplayRejectsBadEdgeType: a CRC-valid record whose edge type is
// outside the schema must not be installed — replay bypasses Txn.addEdge's
// check, and the first view build would index past the adjacency tables.
// A tear does not produce a matching CRC, so it is corruption naming the
// segment wherever it sits, the final record included.
func TestReplayRejectsBadEdgeType(t *testing.T) {
	for _, typ := range []byte{0, byte(edgeTypeMax), 200} {
		for _, victim := range []int{2, 3} { // the directed and the symmetric add-edge
			dir, segs := edgeLogFixture(t, 5)
			patchEdgeType(t, segs[victim].path, typ)
			openRejects(t, fmt.Sprintf("type %d in record %d", typ, victim+1), dir, segs[victim])
		}
		dir, segs := edgeLogFixture(t, 3)
		patchEdgeType(t, segs[2].path, typ)
		openRejects(t, fmt.Sprintf("type %d in the final record", typ), dir, segs[2])
	}
}

// delEdgePayload hand-encodes a one-op payload of the retired kind 4
// (del-edge: from:u64 type:u8 to:u64).
func delEdgePayload(ts int64, from ids.ID, t EdgeType, to ids.ID) []byte {
	b := appendU32(appendU64(nil, uint64(ts)), 1)
	b = appendU64(append(b, 4), uint64(from))
	return appendU64(append(b, byte(t)), uint64(to))
}

// setPropPayload hand-encodes a one-op payload of the retired kind 2
// (set-prop: id:u64 prop).
func setPropPayload(ts int64, id ids.ID, p Prop) []byte {
	b := appendU32(appendU64(nil, uint64(ts)), 1)
	return appendProp(appendU64(append(b, 2), uint64(id)), p)
}

// TestReplayRejectsRetiredDelEdge: node properties are write-once and edges
// insert-only, and a CRC-valid record of a retired op kind — set-prop (2)
// or del-edge (4) — fails Open with ErrCorrupt like any unknown op kind,
// mid-chain and as the final record, instead of being taken for a torn tail
// that silently drops it and every acknowledged commit after it. Each
// record targets persons the log has already created.
func TestReplayRejectsRetiredDelEdge(t *testing.T) {
	for _, op := range []struct {
		name    string
		payload []byte
	}{
		{"set-prop", setPropPayload(4, personID(1), NewProp(PropLength, Int64(7)))},
		{"del-edge", delEdgePayload(4, personID(1), EdgeLikes, personID(2))},
	} {
		for _, n := range []int{5, 4} { // record 4 mid-chain, then final
			dir, segs := edgeLogFixture(t, n)
			victim := segs[3]
			data, err := os.ReadFile(victim.path)
			if err != nil {
				t.Fatal(err)
			}
			rec := appendU32(appendU32(nil, uint32(len(op.payload))), crc32.ChecksumIEEE(op.payload))
			data = append(append(data[:segHeaderSize:segHeaderSize], rec...), op.payload...)
			if err := os.WriteFile(victim.path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			openRejects(t, fmt.Sprintf("%s as record 4 of %d", op.name, n), dir, victim)
		}
	}
}

// walWriteSet builds one representative write set (a node with properties
// and a symmetric edge) committed at ts, for exercising the record codec
// directly.
func walWriteSet(ts int64) *CommitDelta {
	return &CommitDelta{
		ts: ts,
		nodes: []pendingNode{{id: personID(1), props: Props{
			NewProp(PropFirstName, String("Ada")),
			NewProp(PropCreationDate, Int64(7)),
		}}},
		edges: []pendingEdge{{from: personID(1), to: personID(2), t: EdgeKnows, stamp: 3, sym: true}},
	}
}

// TestDepositZeroAlloc pins the write path's allocation contract on both
// sides of the commit log. A committer's append stores a pointer: it
// allocates 0 times amortised, while the log only grows, and 0 times in the
// steady state, where the flusher trims it after every batch and its array
// is reused. The flusher serialises each record into its one reused buffer:
// once that has warmed to the record size, encoding allocates nothing.
func TestDepositZeroAlloc(t *testing.T) {
	d := walWriteSet(9)
	var l commitLog
	l.view = noCursor
	appendOne := func() {
		d.ts++
		l.append(d, noCursor)
	}
	if allocs := testing.AllocsPerRun(1000, appendOne); allocs != 0 {
		t.Fatalf("a growing log allocates %.1f times per append, want 0 amortised", allocs)
	}
	appendWritten := func() {
		appendOne()
		l.mu.Lock()
		l.written = d.ts // the flusher's cursor after its batch
		l.trimLocked()
		l.mu.Unlock()
	}
	if allocs := testing.AllocsPerRun(100, appendWritten); allocs != 0 {
		t.Fatalf("a log trimmed by the flusher allocates %.1f times per append, want 0", allocs)
	}

	gw := &groupWAL{}
	gw.encode(d) // warm the record buffer
	if allocs := testing.AllocsPerRun(100, func() { gw.encode(d) }); allocs != 0 {
		t.Fatalf("encoding allocates %.1f times per record, want 0", allocs)
	}
}

// BenchmarkWALDeposit measures the two halves of a record's way to the
// WAL in isolation (run with -benchmem; both must report 0 allocs/op):
// the committer's append to the commit log, and the flusher's encode into
// its reused buffer.
func BenchmarkWALDeposit(b *testing.B) {
	d := walWriteSet(0)
	b.Run("append", func(b *testing.B) {
		l := commitLog{view: noCursor}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.ts = int64(i + 1)
			l.append(d, noCursor)
			l.mu.Lock()
			l.written = d.ts
			l.trimLocked()
			l.mu.Unlock()
		}
	})
	b.Run("encode", func(b *testing.B) {
		gw := &groupWAL{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.ts = int64(i)
			gw.encode(d)
		}
	})
}

// walDecodeAllocCeiling is the most decodeTxnPayload may allocate for an
// n-byte payload: every pre-sized slice is bounded by the bytes left (a
// 24-byte Prop per 2 payload bytes is the densest), appended slices at
// most double, and the string arena copies the input at most twice. The
// constant absorbs what the fuzzing engine's own goroutines allocate
// meanwhile (TotalAlloc is process-wide).
func walDecodeAllocCeiling(n int) uint64 { return 32*uint64(n) + 64<<10 }

// FuzzWALRecord feeds arbitrary payload bytes to the one redo-record
// decoder: it returns an error, or a write set whose re-encoding decodes
// to the same write set — never a panic, never an allocation above
// walDecodeAllocCeiling. The retired set-prop and del-edge kinds are seeds
// that must come back ErrCorrupt.
func FuzzWALRecord(f *testing.F) {
	decode := func(b []byte, start int) (*CommitDelta, error) {
		rec := &CommitDelta{}
		return rec, decodeTxnPayload(&walDecoder{b: b}, int64(start), int64(len(b)), rec)
	}
	ws := walWriteSet(9)
	f.Add(appendCommitRecord(nil, ws)[8:])
	f.Add(appendCommitRecord(nil, &CommitDelta{ts: 1})[8:])
	for _, typ := range []byte{0, byte(edgeTypeMax), 200} {
		bad := appendCommitRecord(nil, &CommitDelta{ts: 3, edges: ws.edges})[8:]
		bad[edgeTypeOff] = typ
		f.Add(bad)
	}
	// A create-node claiming 65535 props it does not carry.
	f.Add(append(appendCommitRecord(nil, &CommitDelta{ts: 4, nodes: []pendingNode{{id: personID(1)}}})[8:29], 0xFF, 0xFF))
	for _, retired := range [][]byte{
		delEdgePayload(5, personID(1), EdgeKnows, personID(2)),
		setPropPayload(6, personID(1), NewProp(PropLastName, String("L"))),
	} {
		if _, err := decode(retired, 0); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("retired op kind %d decoded: err = %v, want ErrCorrupt", retired[12], err)
		}
		f.Add(retired)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The first decode interns the payload's strings (the interner is
		// process-wide and grows by amortised doubling); the measured one
		// allocates only what the decoder itself does.
		decode(payload, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec, err := decode(payload, 0)
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, walDecodeAllocCeiling(len(payload)); got > max {
			t.Fatalf("decoding %d bytes allocated %d, ceiling %d", len(payload), got, max)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unnamed decode error: %v", err)
			}
			return
		}
		again, err := decode(appendCommitRecord(nil, dec), 8)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(dec, again) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", dec, again)
		}
	})
}
