package bench

import (
	"runtime"
	"testing"

	"ldbcsnb/internal/intern"
	"ldbcsnb/internal/store"
)

// TestMutableBytesAccounting holds Stats.MutableBytes to the heap: after a
// 250-person bulk load the accounted footprint (mutable side, strings
// interned by the load) must be within 15 % of the
// HeapAlloc the load added, and a node must cost at most 450 B before its
// adjacency lists — 434 B measured (24 B map entry, 56 B record, ~4.5 rows
// of 32 B, one 32 B version, ~7 props of 24 B); the dense [edgeTypeMax]
// arrays put it above 1000 B, and a row table that doubled would add ~45 B.
func TestMutableBytesAccounting(t *testing.T) {
	heapAlloc := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	e := NewEnvData(250, 42)
	st := store.New()
	before, internBefore := heapAlloc(), intern.Default.Bytes()
	if err := e.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()
	stats := st.ComputeStats()
	runtime.KeepAlive(e)

	if perNode := stats.MutableBytesPerNode(); perNode > 450 {
		t.Errorf("mutable side costs %.0f B/node before adjacency lists, want <= 450", perNode)
	}
	accounted := stats.MutableBytes + stats.InternBytes - internBefore
	measured := int64(after - before)
	if diff := float64(accounted-measured) / float64(measured); diff < -0.15 || diff > 0.15 {
		t.Errorf("accounted %d B (mutable side %d B) vs %d B of heap added by the load: %+.1f%%, want within 15%%",
			accounted, stats.MutableBytes, measured, 100*diff)
	}
	t.Logf("%d nodes, %d adjacency entries: %.0f B/node, %.1f B/entry; accounted %d B of %d B measured",
		stats.Nodes, stats.MutableEntries, stats.MutableBytesPerNode(), stats.MutableBytesPerEntry(), accounted, measured)
}
