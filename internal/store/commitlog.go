package store

import (
	"math"
	"sync"
)

// commitLog is the store's one record of the commits its consumers have
// yet to read: their write sets, appended under commitMu before the clock
// advances, so a reader that sees a timestamp finds its commit here. Each
// consumer reads through a cursor, the newest commit it has consumed: the
// WAL flusher (written; durable, the fsynced watermark committers wait on,
// is no cursor) and the cached view (its timestamp). The log keeps what is
// past the minimum cursor, at consecutive timestamps: a place is an index.
//
// A consumer reads its range with the lock released and moves its cursor
// past it once done, so nothing trims, clears or reuses a slot it reads.
// The one cursor that can go mid-read is the view's. Readers apply the
// whole backlog, but once the era's overlay plus the backlog passes the
// compaction trigger the log drops the view's cursor — the era is due for
// a rebuild, and a refresh would only grow it — and the next reader
// rebuilds and registers it again. A drop moves the log to a new array: a
// refresh may still be reading the old one.
//
// Lock order: Persistent.ckptMu -> viewMu -> commitMu -> commitLog.mu.
type commitLog struct {
	mu sync.Mutex

	buf []*CommitDelta // guarded by mu; buf[lo:] is the log, consecutive in ts; slots below lo are cleared
	lo  int            // guarded by mu

	view      int64 // guarded by mu; noCursor before the first build and once dropped
	overlay   int64 // guarded by mu; overlay cost of the commits the cached era applied
	backlog   int64 // guarded by mu; overlay cost of the commits past view
	viewDrops int64 // guarded by mu; ViewStatsSnapshot.Overflows
	written   int64 // guarded by mu
	durable   int64 // guarded by mu

	// The flusher's queue (groupcommit.go); the conditions are nil on a
	// store without a WAL.
	work     *sync.Cond   // guarded by mu; wakes the flusher on append, barrier and close
	synced   *sync.Cond   // guarded by mu; wakes waitDurable after every batch
	barriers []walBarrier // guarded by mu
	closing  bool         // guarded by mu
	err      error        // guarded by mu; sticky first write or fsync failure
}

// noCursor is the cursor of a consumer that keeps nothing in the log.
const noCursor = math.MaxInt64

// entries is the overlay cost of applying d: its created nodes, and two
// entries per edge.
func (d *CommitDelta) entries() int64 { return int64(len(d.nodes) + 2*len(d.edges)) }

// append adds one commit's write set. Called under commitMu, before the
// clock advances. trigger is the cached era's compaction trigger
// (compactTrigger): the one place it is checked, so a view advances by a
// rebuild exactly when the era's overlay plus the backlog has passed it.
func (l *commitLog) append(d *CommitDelta, trigger int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.view != noCursor {
		if l.backlog += d.entries(); l.overlay+l.backlog > trigger {
			l.view, l.backlog = noCursor, 0
			l.viewDrops++
			l.moveLocked(l.buf[l.lo:], 0)
			l.trimLocked()
		}
	}
	if min(l.view, l.written) < d.ts {
		if len(l.buf) == cap(l.buf) {
			// Full: move the log to a new array, twice the size if it fills
			// half. Moving it to the front of this one would let later
			// appends overwrite slots that ranges handed out still cover.
			c := max(cap(l.buf), 32)
			if 2*(len(l.buf)-l.lo) > c {
				c *= 2
			}
			l.moveLocked(l.buf[l.lo:], c)
		}
		l.buf = append(l.buf, d)
	}
	if l.work != nil {
		l.work.Signal()
	}
}

// moveLocked makes kept the log, in a new array of capacity c.
//
//snb:locked mu
func (l *commitLog) moveLocked(kept []*CommitDelta, c int) {
	l.buf, l.lo = append(make([]*CommitDelta, 0, max(c, len(kept))), kept...), 0
}

// afterLocked returns the write sets of the commits after ts, which must
// not be below the oldest one's predecessor.
//
//snb:locked mu
func (l *commitLog) afterLocked(ts int64) []*CommitDelta {
	recs := l.buf[l.lo:]
	if len(recs) == 0 || ts >= recs[len(recs)-1].ts {
		return nil
	}
	return recs[ts+1-recs[0].ts:]
}

// trimLocked drops the write sets every consumer is past. Once none is
// left the array is reused from the start: no consumer reads a slot then.
//
//snb:locked mu
func (l *commitLog) trimLocked() {
	keep := len(l.buf) - len(l.afterLocked(min(l.view, l.written)))
	clear(l.buf[l.lo:keep])
	if l.lo = keep; keep == len(l.buf) {
		l.buf, l.lo = l.buf[:0], 0
	}
}

// since returns the write sets of the commits in (after, upto] to the view
// refresh, which the view's cursor at after keeps in the log until the
// refresh moves it; ok is false once the cursor has been dropped.
func (l *commitLog) since(after, upto int64) (ds []*CommitDelta, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.view != after {
		return nil, false
	}
	return l.afterLocked(after)[:upto-after], true
}

// pass moves every cursor to ts, a bulk load's timestamp (Store.Load).
// The load has no write set here, so the next commit must find the log
// empty and every consumer at ts: the WAL flusher has written every record
// below ts (the caller drained it under commitMu, which it holds), and the
// view's cursor is dropped — the cached view cannot refresh across ts, and
// its next reader rebuilds. A refresh still reading the old array keeps it.
func (l *commitLog) pass(ts int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.view, l.backlog = noCursor, 0
	if l.written != noCursor {
		l.written = ts
	}
	l.buf, l.lo = nil, 0
}

// moveView moves the view's cursor to ts, the view just refreshed, unless
// a burst has dropped it meanwhile: the commits up to ts move from the
// backlog to the era's overlay. A rebuild at ts registers it (rebuild =
// true) under commitMu, with ts read from the clock under the same hold,
// so every later commit is kept for the view, and starts an empty overlay.
func (l *commitLog) moveView(ts int64, rebuild bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.view == noCursor && !rebuild {
		return
	}
	backlog := int64(0)
	for _, d := range l.afterLocked(ts) {
		backlog += d.entries()
	}
	if rebuild {
		l.overlay = 0
	} else {
		l.overlay += l.backlog - backlog
	}
	l.view, l.backlog = ts, backlog
	l.trimLocked()
}
