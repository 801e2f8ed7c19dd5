package bench

import (
	"fmt"
	"runtime"
	"testing"

	"ldbcsnb/internal/store"
)

// BenchmarkMemory measures the resident footprint of the compact frozen
// representation at increasing scale: bytes per node and per adjacency
// entry of the snapshot view (delta+varint CSR, a property row header per
// ordinal, interned strings), the uncompressed baseline the codec is measured
// against, the mutable MVCC side's bytes per node and per adjacency entry,
// process heap with the environment still live, and the heap objects right
// after the load, before any view (what a GC cycle marks). One iteration is
// the full streamed generate+split+load pipeline plus a view build, so
// ns/op doubles as the end-to-end load latency at that scale. Emitted to
// BENCH_memory.json by `make bench-mem`.
func BenchmarkMemory(b *testing.B) {
	for _, persons := range []int{250, 1000, 2500} {
		b.Run(fmt.Sprintf("sf=%dp", persons), func(b *testing.B) {
			var st store.Stats
			var heap, objects uint64
			for i := 0; i < b.N; i++ {
				env, err := NewEnvStreamed(persons, 42)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				objects = ms.HeapObjects
				env.Store.CurrentView() // materialise the frozen view
				st = env.Store.ComputeStats()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heap = ms.HeapAlloc
				runtime.KeepAlive(env) // or the heap read above is of a store already collected
			}
			v := st.View
			if v.Edges == 0 {
				b.Fatal("view has no edges; stats are not era-aware")
			}
			b.ReportMetric(v.BytesPerNode(), "viewbytes/node")
			b.ReportMetric(v.BytesPerEdge(), "adjbytes/edge")
			b.ReportMetric(float64(v.UncompressedAdjBytes)/float64(v.Edges), "rawadjbytes/edge")
			b.ReportMetric(float64(v.UncompressedAdjBytes)/float64(v.AdjBytes), "adjcompression")
			b.ReportMetric(st.MutableBytesPerNode(), "mutbytes/node")
			b.ReportMetric(st.MutableBytesPerEntry(), "mutbytes/entry")
			b.ReportMetric(float64(st.InternBytes), "internbytes")
			b.ReportMetric(float64(v.Nodes), "nodes")
			b.ReportMetric(float64(v.Edges)/2, "edges")
			b.ReportMetric(float64(heap)/(1<<20), "heapMB")
			b.ReportMetric(float64(objects), "loadheapobjects")
		})
	}
}
