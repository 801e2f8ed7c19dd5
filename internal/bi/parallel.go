// Morsel-driven parallel BI execution over frozen snapshot views.
//
// Every BI*Par function runs the same kernels and finalize steps as its
// generic serial counterpart in bi.go, but the fact-table scan is sharded:
// internal/exec cuts the view's dense per-kind node ranges into morsels,
// workers claim morsels dynamically, and each worker folds its rows into a
// private partial aggregate. The view is immutable, so the scan side needs
// no synchronisation at all; the only coordination is the morsel cursor
// and the final serial merge of NumWorkers partials.
//
// Worker/scratch ownership rules: a worker index owns its partial (and,
// for BI7, its pooled workload.Scratch) for the duration of one Scan/Each
// call — never share either across workers, and never retain them past the
// merge. Scratches are recycled through a package pool across executions;
// they key their state by node ID, so a pooled scratch serves any view.
package bi

import (
	"sync"

	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// scratchPool recycles the per-worker scratches of the parallel
// traversal kernels (BI7's reach) across executions, so a steady BI lane
// stops allocating visited sets once every worker has a warm one.
var scratchPool = sync.Pool{New: func() any { return workload.NewScratch() }}

// grabScratches draws n pooled scratches, one per worker.
func grabScratches(n int) []*workload.Scratch {
	out := make([]*workload.Scratch, n)
	for i := range out {
		out[i] = scratchPool.Get().(*workload.Scratch)
	}
	return out
}

func putScratches(scs []*workload.Scratch) {
	for _, sc := range scs {
		scratchPool.Put(sc)
	}
}

// scanMessages shards the post and comment scans of one view across the
// configured workers, folding each morsel into the claiming worker's
// partial via kernel.
func scanMessages[P any](v *store.SnapshotView, par exec.Config, parts []P,
	kernel func(v *store.SnapshotView, p *P, id ids.ID)) {
	for _, kind := range messageKinds {
		par.Scan(v.NumOfKind(kind), func(worker, lo, hi int) {
			part := &parts[worker]
			for _, m := range v.KindRange(kind, lo, hi) {
				kernel(v, part, m)
			}
		})
	}
}

// BI1Par is BI1 on the morsel-parallel view path.
func BI1Par(v *store.SnapshotView, par exec.Config) []BI1Row {
	parts := make([]bi1Partial, par.NumWorkers())
	scanMessages(v, par, parts, bi1Add[*store.SnapshotView])
	return bi1Finalize(parts)
}

// BI2Par is BI2 on the morsel-parallel view path.
func BI2Par(v *store.SnapshotView, par exec.Config, windowStart, windowLen int64, limit int) []BI2Row {
	parts := make([]bi2Partial, par.NumWorkers())
	scanMessages(v, par, parts, func(v *store.SnapshotView, p *bi2Partial, id ids.ID) {
		bi2Add(v, p, id, windowStart, windowLen)
	})
	return bi2Finalize(v, parts, limit)
}

// BI3Par is BI3 on the morsel-parallel view path.
func BI3Par(v *store.SnapshotView, par exec.Config) []BI3Row {
	parts := make([]bi3Partial, par.NumWorkers())
	scanMessages(v, par, parts, bi3Add[*store.SnapshotView])
	return bi3Finalize(parts)
}

// BI4Par is BI4 on the morsel-parallel view path.
func BI4Par(v *store.SnapshotView, par exec.Config, limit int) []BI4Row {
	parts := make([]bi4Partial, par.NumWorkers())
	scanMessages(v, par, parts, bi4Add[*store.SnapshotView])
	return bi4Finalize(parts, limit)
}

// BI5Par is BI5 on the morsel-parallel view path (the rollup over the
// dimension-sized class hierarchy stays serial).
func BI5Par(v *store.SnapshotView, par exec.Config) []BI5Row {
	parts := make([]bi5Partial, par.NumWorkers())
	scanMessages(v, par, parts, bi5Add[*store.SnapshotView])
	return bi5Finalize(v, parts)
}

// BI6Par is BI6 on the morsel-parallel view path: the person scan is
// sharded, each worker appends its surviving rows, and the merge re-sorts.
func BI6Par(v *store.SnapshotView, par exec.Config, createdBefore int64, maxMessages int) []BI6Row {
	parts := make([][]BI6Row, par.NumWorkers())
	par.Scan(v.NumOfKind(ids.KindPerson), func(worker, lo, hi int) {
		for _, p := range v.KindRange(ids.KindPerson, lo, hi) {
			if row, ok := bi6Row(v, p, createdBefore, maxMessages); ok {
				parts[worker] = append(parts[worker], row)
			}
		}
	})
	return bi6Finalize(parts)
}

// BI7Par is BI7 on the morsel-parallel view path: the membership scan is
// morsel-sharded into a position-indexed count array (disjoint writes, no
// merge), the top-limit selection is serial, and the per-forum reach
// traversals fan out one task at a time — forum cost is skewed, so the
// Each dispatch keeps workers busy while one of them walks a hub forum.
func BI7Par(v *store.SnapshotView, par exec.Config, limit int) []BI7Row {
	forums := v.NodesOfKind(ids.KindForum)
	members := make([]int, len(forums))
	par.Scan(len(forums), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			members[i] = v.OutDegree(forums[i], store.EdgeHasMember)
		}
	})
	order := bi7Select(forums, members, limit)
	out := make([]BI7Row, len(order))
	scratches := grabScratches(par.NumWorkers())
	par.Each(len(order), func(worker, task int) {
		f := forums[order[task]]
		out[task] = BI7Row{
			Forum: f, Title: v.Prop(f, store.PropTitle).Str(),
			Members: members[order[task]], Reach: bi7Reach(v, scratches[worker], f),
		}
	})
	putScratches(scratches)
	return out
}

// BI8Par is BI8 on the morsel-parallel view path. Workers memoise reply
// depths independently; depth is a pure function of the frozen graph, so
// private memos resolve identical values without sharing.
func BI8Par(v *store.SnapshotView, par exec.Config) []BI8Row {
	parts := make([]bi8Partial, par.NumWorkers())
	par.Scan(v.NumOfKind(ids.KindComment), func(worker, lo, hi int) {
		part := &parts[worker]
		for _, c := range v.KindRange(ids.KindComment, lo, hi) {
			bi8Add(v, part, c)
		}
	})
	return bi8Finalize(parts)
}
