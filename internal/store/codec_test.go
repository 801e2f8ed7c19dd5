package store

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ldbcsnb/internal/ids"
)

// Varint/delta adjacency codec property tests: encode with appendAdjRow,
// decode through the same csr.rowAt path the views use, and require the
// exact input row back — order, peers and stamps. The corpus covers the
// boundary shapes (empty, single entry, maximal ordinal and stamp gaps in
// both directions) and a fuzz target walks randomised rows.

// codecFixture builds an ordinal world over the given IDs, sorted as a
// view base's are (the directory requires it).
func codecFixture(nodeIDs []ids.ID) (nodes []ids.ID, ord *ordDir) {
	nodes = slices.Sorted(slices.Values(nodeIDs))
	d := newOrdDir(nodes)
	return nodes, &d
}

// encodeDecode round-trips one row through the codec's production read
// path, both cold (first decode, publishing to the cache) and hot (served
// from the cache), and requires the two to agree.
func encodeDecode(t *testing.T, row []Edge, nodes []ids.ID, ord *ordDir) []Edge {
	t.Helper()
	buf, ok := appendAdjRow(nil, row, ord, nodes)
	if !ok {
		t.Fatalf("appendAdjRow refused a fully-mapped row")
	}
	c := csr{lo: 0, offsets: []uint32{0, uint32(len(buf))}, data: buf, entries: len(row), dec: &decCache{}}
	cold := c.rowAt(0, nodes)
	if got := c.degreeAt(0); got != len(row) {
		t.Fatalf("degreeAt = %d, want %d", got, len(row))
	}
	hot := c.rowAt(0, nodes)
	if !edgesEqual(cold, hot) {
		t.Fatalf("cached read diverged from first decode:\n cold %v\n hot %v", cold, hot)
	}
	return hot
}

func TestAdjRowRoundTrip(t *testing.T) {
	nodes, ord := codecFixture([]ids.ID{
		personID(1), personID(2), personID(3), personID(4),
		ids.Compose(ids.KindPerson, math.MaxInt32, 0),
	})
	cases := map[string][]Edge{
		"empty":  {},
		"single": {{To: nodes[2], Stamp: 42}},
		"ascending": {
			{To: nodes[0], Stamp: 10}, {To: nodes[1], Stamp: 20}, {To: nodes[2], Stamp: 30},
		},
		"descending": {
			{To: nodes[3], Stamp: 30}, {To: nodes[1], Stamp: 20}, {To: nodes[0], Stamp: 10},
		},
		"repeat-peer": {
			{To: nodes[1], Stamp: 5}, {To: nodes[1], Stamp: 6}, {To: nodes[1], Stamp: 5},
		},
		"max-ordinal-gap": {
			{To: nodes[0], Stamp: 0}, {To: nodes[4], Stamp: 0}, {To: nodes[0], Stamp: 0},
		},
		"max-stamp-gap": {
			{To: nodes[0], Stamp: math.MinInt64}, {To: nodes[1], Stamp: math.MaxInt64},
			{To: nodes[2], Stamp: math.MinInt64}, {To: nodes[3], Stamp: 0},
		},
	}
	for name, row := range cases {
		t.Run(name, func(t *testing.T) {
			got := encodeDecode(t, row, nodes, ord)
			if len(row) == 0 {
				if len(got) != 0 {
					t.Fatalf("empty row decoded to %v", got)
				}
				return
			}
			if !edgesEqual(got, row) {
				t.Fatalf("round trip diverged:\n got %v\nwant %v", got, row)
			}
		})
	}
}

// TestAdjRowUnmappedPeerRollsBack pins the spill contract: a row with a
// neighbour outside the ordinal world is refused with dst byte-identical to
// the input, so a partial row never leaks into the shared slab.
func TestAdjRowUnmappedPeerRollsBack(t *testing.T) {
	nodes, ord := codecFixture([]ids.ID{personID(1), personID(2)})
	dst := append([]byte(nil), 0xAA, 0xBB, 0xCC)
	row := []Edge{{To: nodes[1], Stamp: 1}, {To: personID(99), Stamp: 2}}
	out, ok := appendAdjRow(dst, row, ord, nodes)
	if ok {
		t.Fatal("row with unmapped peer was encoded")
	}
	if len(out) != 3 || out[0] != 0xAA || out[1] != 0xBB || out[2] != 0xCC {
		t.Fatalf("dst not rolled back: %x", out)
	}
}

// TestAdjRowCompression pins the point of the codec: consecutive ordinals
// with near-identical stamps — the shape time-ordered IDs produce — cost a
// few bytes per entry, not the 16 of the uncompressed Edge.
func TestAdjRowCompression(t *testing.T) {
	nodeIDs := make([]ids.ID, 1000)
	for i := range nodeIDs {
		nodeIDs[i] = personID(uint32(i + 1))
	}
	nodes, ord := codecFixture(nodeIDs)
	row := make([]Edge, 500)
	for i := range row {
		row[i] = Edge{To: nodes[i*2], Stamp: int64(1_000_000 + i*3)}
	}
	buf, ok := appendAdjRow(nil, row, ord, nodes)
	if !ok {
		t.Fatal("encode refused")
	}
	if perEntry := float64(len(buf)) / float64(len(row)); perEntry > 4 {
		t.Fatalf("local row costs %.1f bytes/entry, want <= 4 (raw is 16)", perEntry)
	}
	if got := encodeDecode(t, row, nodes, ord); !edgesEqual(got, row) {
		t.Fatal("compressed row round trip diverged")
	}
}

// FuzzAdjRowRoundTrip drives randomised rows (count, ordinal walk and stamp
// walk derived from the fuzz inputs) through encode+decode and requires
// exact reproduction. The interesting space is the delta structure, so the
// generator takes random steps — forward and backward, small and huge —
// rather than independent random values.
func FuzzAdjRowRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1))
	f.Add(uint8(1), uint64(99))
	f.Add(uint8(17), uint64(0xDEADBEEF))
	f.Add(uint8(255), uint64(12345))
	nodeIDs := make([]ids.ID, 4096)
	for i := range nodeIDs {
		nodeIDs[i] = personID(uint32(i + 1))
	}
	nodes, ord := codecFixture(nodeIDs)
	f.Fuzz(func(t *testing.T, n uint8, seed uint64) {
		if seed == 0 {
			seed = 1
		}
		next := func() uint64 { // xorshift64
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return seed
		}
		row := make([]Edge, int(n))
		o, stamp := int64(0), int64(0)
		for i := range row {
			o = (o + int64(next()%257) - 128 + int64(len(nodes))) % int64(len(nodes))
			switch next() % 4 {
			case 0:
				stamp += int64(next() % 64) // local forward step
			case 1:
				stamp -= int64(next() % 64)
			case 2:
				stamp = int64(next()) // arbitrary jump, any sign
			}
			row[i] = Edge{To: nodes[o], Stamp: stamp}
		}
		got := encodeDecode(t, row, nodes, ord)
		if len(row) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty row decoded to %v", got)
			}
			return
		}
		if !edgesEqual(got, row) {
			t.Fatalf("round trip diverged:\n got %v\nwant %v", got, row)
		}
	})
}

// TestZigzagRoundTrip sweeps the signed<->unsigned mapping over the
// boundary values the deltas can hit.
func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], zigzag(v))
		u, m := binary.Uvarint(buf[:n])
		if m != n || unzigzag(u) != v {
			t.Fatalf("varint round trip of %d failed", v)
		}
	}
}
