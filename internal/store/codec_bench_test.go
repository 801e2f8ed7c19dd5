package store

import (
	"testing"

	"ldbcsnb/internal/ids"
)

// Microbenchmarks for the adjacency read path: rowAt served hot from the
// decode cache against ranging the raw slice, the cold first decode, and
// the short-row shapes the query kernels lean on. These are the numbers
// behind the "compact view holds query latency" claim — run them when
// touching codec.go.

func benchRow(n int) ([]Edge, csr, []ids.ID) {
	nodes := make([]ids.ID, n*11+1)
	for i := range nodes {
		nodes[i] = ids.Compose(ids.KindPerson, int64(i), 0)
	}
	row := make([]Edge, n)
	stamp := int64(1_300_000_000_000)
	for i := range row {
		// Mixed deltas: mostly near-neighbour ordinals, stamps minutes to
		// hours apart — the shape bulk-loaded SNB adjacency has.
		o := i * 3
		if i%7 == 0 {
			o = i * 11
		}
		stamp += int64(40_000 + i%5*7_000_000)
		row[i] = Edge{To: nodes[o], Stamp: stamp}
	}
	var c csr
	c.lo = 0
	c.offsets = make([]uint32, 2)
	var ok bool
	ord := newOrdDir(nodes)
	c.data, ok = appendAdjRow(nil, row, &ord, nodes)
	if !ok {
		panic("row refused")
	}
	c.offsets[1] = uint32(len(c.data))
	c.entries = n
	c.dec = &decCache{}
	return row, c, nodes
}

// BenchmarkRowIterHot is the steady-state read: rowAt hitting the decode
// cache, then ranging the returned slice. This is what every query after
// the first pays per row.
func BenchmarkRowIterHot(b *testing.B) {
	_, c, nodes := benchRow(64)
	c.rowAt(0, nodes) // warm the cache
	b.ReportAllocs()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, e := range c.rowAt(0, nodes) {
			sum += int64(e.To) + e.Stamp
		}
	}
	_ = sum
}

// BenchmarkRowIterShort measures the hot single-entry path: the row shape
// of hasCreator/replyOf/container rows. Reported per row-open plus full
// iteration.
func BenchmarkRowIterShort(b *testing.B) {
	_, c, nodes := benchRow(1)
	c.rowAt(0, nodes)
	b.ReportAllocs()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, e := range c.rowAt(0, nodes) {
			sum += int64(e.To) + e.Stamp
		}
	}
	_ = sum
}

// BenchmarkRowDecodeCold is the first-touch cost: decoding one 64-entry row
// off the varint slab (no cache, so every iteration decodes).
func BenchmarkRowDecodeCold(b *testing.B) {
	_, c, nodes := benchRow(64)
	c.dec = nil
	b.ReportAllocs()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, e := range c.rowAt(0, nodes) {
			sum += int64(e.To) + e.Stamp
		}
	}
	_ = sum
}

func BenchmarkRowIterRawSlice(b *testing.B) {
	row, _, _ := benchRow(64)
	b.ReportAllocs()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, e := range row {
			sum += int64(e.To) + e.Stamp
		}
	}
	_ = sum
}
