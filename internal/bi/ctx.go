package bi

import (
	"context"

	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// RunViewCtx executes the BI query on the view path under ctx, on one
// worker: cancellation or deadline expiry aborts the scan at the next
// cooperative check in the view's read entry points and returns
// store.ErrQueryCanceled. The serving layer's BI lane uses this hook. The
// check's poll budget belongs to one goroutine and it unwinds by panicking
// out of it, so a cancellable view is never handed to morsel workers:
// RunPar stays uncancellable and is reserved for in-process analytics that
// own their runtime.
func (sp *Spec) RunViewCtx(ctx context.Context, v *store.SnapshotView, sc *workload.Scratch, p Params) (res Result, err error) {
	defer store.CatchCanceled(&err)
	res = sp.RunView(v.WithCancel(ctx), sc, p)
	return res, err
}
