package store

import (
	"context"
	"errors"
)

// Cooperative query cancellation on the frozen-view read path.
//
// Queries are plain Go functions over the Reader contract — they return
// results, not errors, and their hot loops are allocation-free. Deadline
// enforcement therefore cannot thread a ctx parameter through every
// row or property read without taxing the fast path and rewriting every
// query. Instead, a serving layer derives a per-request view with
// WithCancel: a shallow copy of the shared SnapshotView carrying a
// cancellation hook that the Reader's row and property reads (OutOf,
// InOf, OutNodes, InNodes, PropOf, PropsOf) poll every cancelEvery calls. When the request's context is done
// the hook unwinds the query with a private panic sentinel, which
// CatchCanceled converts back into ErrQueryCanceled at the dispatch
// boundary — the registries' RunViewCtx hooks wrap exactly this pattern.
//
// The cost on the shared, uncancellable view is one nil check per read
// call; TestViewAdjacencyZeroAlloc still pins 0 allocs/op.

// ErrQueryCanceled is returned by the context-aware registry run hooks
// when a query was unwound mid-scan because its context was canceled
// (deadline exceeded or caller cancellation).
var ErrQueryCanceled = errors.New("store: query canceled")

// cancelEvery is the polling stride: the hook checks the context's done
// channel once per this many ticked read calls. Point reads are tens of
// nanoseconds, so the worst-case overshoot past a deadline is a few
// microseconds — far below any admission-queue tick.
const cancelEvery = 128

// canceled is the panic sentinel the hook unwinds queries with. It is a
// distinct unexported type so CatchCanceled can never confuse it with a
// genuine query panic.
type canceled struct{}

// cancelHook is the per-request poll state. It is owned by the request's
// goroutine (WithCancel hands out one per derived view) — the budget
// counter is deliberately unsynchronised, so a cancellable view must not
// be shared across goroutines (the morsel-parallel executor takes the
// shared view instead).
type cancelHook struct {
	done   <-chan struct{}
	budget int
}

// tick is called from the //snb:noalloc read entry points: decrement the
// stride budget and, once it runs out, poll the done channel.
//
//go:noinline
func (c *cancelHook) tick() {
	c.budget--
	if c.budget > 0 {
		return
	}
	c.budget = cancelEvery
	select {
	case <-c.done:
		panic(canceled{})
	default:
	}
}

// WithCancel returns a view that cooperatively aborts reads once ctx is
// done: its row and property reads poll the context every cancelEvery
// calls and unwind with a panic that CatchCanceled translates to
// ErrQueryCanceled.
// The derived view shares all data with v (same timestamp, era and
// ordinals) and is intended for one request on one goroutine; v itself is
// untouched and stays shareable. A context that can never be canceled
// returns v unchanged.
func (v *SnapshotView) WithCancel(ctx context.Context) *SnapshotView {
	if ctx == nil {
		return v
	}
	done := ctx.Done()
	if done == nil {
		return v
	}
	nv := *v
	nv.cancel = &cancelHook{done: done, budget: cancelEvery}
	return &nv
}

// CatchCanceled is the deferred counterpart of WithCancel: it converts
// the cooperative-cancellation unwind into *err == ErrQueryCanceled and
// re-panics anything else. Use as
//
//	defer store.CatchCanceled(&err)
//	res = spec.RunView(v.WithCancel(ctx), sc, p)
func CatchCanceled(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(canceled); ok {
			*err = ErrQueryCanceled
			return
		}
		panic(r)
	}
}
