package bench

import (
	"fmt"
	"testing"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/workload"
)

// BenchmarkBISerialVsParallel measures every BI query's one body on the
// MVCC transaction ("txn"), on the view at one worker ("view") and on the
// view at 2 and 4 workers ("par2", "par4"), all through bi.Registry. The
// sub-benchmark ratios isolate (a) the read-path cost difference — view
// must beat txn on every query, there are no locks and no MVCC filtering
// on the CSR — and (b) the morsel-scheduling speedup, which tracks the
// host's core count (parXs on fewer than X cores measure scheduling
// overhead, not speedup).
//
// `make bench-bi` converts the output into BENCH_bi.json via cmd/benchjson
// so the BI perf trajectory is tracked across PRs.
func BenchmarkBISerialVsParallel(b *testing.B) {
	env := testEnv(b)
	win := int64(120 * 24 * 3600 * 1000)
	// The same bindings bi.Registry draws for the mixed run, pinned to
	// this environment's simulation range.
	params := [bi.NumQueries]bi.Params{
		1: {WindowStart: datagen.SimEnd - 2*win, WindowMillis: win, Limit: 10}, // BI2
		3: {Limit: 20},                                                         // BI4
		5: {CreatedBefore: datagen.SimEnd, MaxMessages: 3},                     // BI6
		6: {Limit: 10},                                                         // BI7
	}
	for q := range bi.Registry {
		spec := &bi.Registry[q]
		p := params[q]
		b.Run(spec.Name, func(b *testing.B) {
			b.Run("txn", func(b *testing.B) {
				tx := env.Store.Begin()
				sc := workload.NewScratch()
				spec.RunTxn(tx, sc, p) // warm the scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spec.RunTxn(tx, sc, p)
				}
			})
			b.Run("view", func(b *testing.B) {
				v := env.Store.CurrentView()
				sc := workload.NewScratch()
				spec.RunView(v, sc, p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spec.RunView(v, sc, p)
				}
			})
			for _, workers := range []int{2, 4} {
				b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
					v := env.Store.CurrentView()
					par := exec.Config{Workers: workers}
					spec.RunPar(v, par, p) // warm the scratch pool
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						spec.RunPar(v, par, p)
					}
				})
			}
		})
	}
}
