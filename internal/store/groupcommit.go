package store

import (
	"bufio"
	"sync"
	"sync/atomic"
)

// Group commit. A commit appends its write set to the commit log
// (commitlog.go) under commitMu; one flusher goroutine takes the records
// past its written cursor in batches, serialises each into one reused
// buffer outside the lock, writes the batch with one buffered write and, in
// fsync-on-commit mode, one fsync, after which its durable watermark covers
// the batch. Committers that need the durability guarantee park on that
// watermark instead of performing the fsync themselves, so the fsync cost
// amortises across every writer whose record rode in the batch.

// WALSyncMode selects the durability barrier applied to each group-commit
// batch.
type WALSyncMode int

const (
	// SyncClose buffers records in the process; they reach the OS on
	// rotation, explicit Flush/Sync barriers, checkpoints and Close. A
	// process crash can lose the buffered tail.
	SyncClose WALSyncMode = iota
	// SyncFlush has the flusher write every batch to the OS (no fsync).
	// Commit returns once its record is in the commit log, before the
	// flusher has serialised or written it, so a process crash loses the
	// committed records past the flusher's written cursor — at most what
	// commits while one batch (or an inline rotation fsync) is in progress
	// — and none before it; a machine crash can lose any record not yet
	// fsynced by a rotation, checkpoint or Sync barrier.
	SyncFlush
	// SyncCommit fsyncs every batch and holds Commit until the record is
	// durable: Commit returned => the transaction survives a machine crash.
	SyncCommit
)

func (m WALSyncMode) String() string {
	switch m {
	case SyncFlush:
		return "flush"
	case SyncCommit:
		return "commit"
	default:
		return "none"
	}
}

// walBarrier is a control message queued beside the log's records: the
// flusher writes every record the log holds when it takes the barrier (at
// least those of the commits before it was queued), applies the requested
// flush/fsync/rotation, and signals done. Barriers implement FlushWAL,
// SyncWAL and rotateWAL.
type walBarrier struct {
	flush  bool
	sync   bool
	rotate bool
	done   chan error
}

// groupWAL is the group-commit flusher, the segmented log's one writer.
// What it shares with committers and barrier callers — the records, its
// cursors, the barrier queue — lives in the commit log, under its lock.
type groupWAL struct {
	mode WALSyncMode
	log  *commitLog

	seg *walSegments  // flusher-owned after start (Open constructs it)
	bw  *bufio.Writer // flusher-owned
	rec []byte        // flusher-owned; the record being written, reused

	// onAppend observes each record's size after the flusher writes it
	// (the checkpoint trigger hook); called off the commit path, so a
	// trigger can be slower than a commit without stalling writers.
	onAppend func(recBytes int)

	fsyncs  atomic.Int64
	batches atomic.Int64
	batched atomic.Int64

	wg sync.WaitGroup
}

// newGroupWAL makes the flusher a consumer of l from clock on, the
// recovered clock, and starts it over the opened active segment. clock
// must be above every recovered record, so an explicit rotation before any
// new record stamps a sound firstTS.
func newGroupWAL(mode WALSyncMode, seg *walSegments, l *commitLog, clock int64, onAppend func(int)) *groupWAL {
	gw := &groupWAL{
		mode:     mode,
		log:      l,
		seg:      seg,
		bw:       bufio.NewWriterSize(seg.f, 1<<16),
		onAppend: onAppend,
	}
	l.mu.Lock()
	l.written, l.durable = clock, clock
	l.work, l.synced = sync.NewCond(&l.mu), sync.NewCond(&l.mu)
	l.mu.Unlock()
	gw.wg.Add(1)
	go gw.flusher()
	return gw
}

// waitDurable blocks until every commit at or below ts is fsynced (or the
// flusher has failed, returning the sticky error). SyncCommit committers
// call this after releasing commitMu.
func (gw *groupWAL) waitDurable(ts int64) error {
	l := gw.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.err == nil && l.durable < ts {
		l.synced.Wait()
	}
	return l.err
}

// barrier queues b and waits for the flusher to acknowledge it.
func (gw *groupWAL) barrier(b walBarrier) error {
	b.done = make(chan error, 1)
	l := gw.log
	l.mu.Lock()
	l.barriers = append(l.barriers, b)
	l.work.Signal()
	l.mu.Unlock()
	return <-b.done
}

// flusher is the log's single writer goroutine: wait for records past its
// cursor or a barrier, write the batch record by record through the segment
// rotation logic with no lock held, apply the batch's durability barrier,
// then advance its cursors.
func (gw *groupWAL) flusher() {
	defer gw.wg.Done()
	l := gw.log
	for {
		l.mu.Lock()
		for len(l.afterLocked(l.written)) == 0 && len(l.barriers) == 0 && !l.closing {
			l.work.Wait()
		}
		upto, recs, barriers := l.written, l.afterLocked(l.written), l.barriers
		l.barriers = nil
		l.mu.Unlock()
		if len(recs) == 0 && len(barriers) == 0 {
			return // closing, with everything written
		}
		if len(recs) > 0 {
			upto = recs[len(recs)-1].ts
		}

		werr := gw.write(recs)
		synced := false
		needFlush := gw.mode == SyncFlush && len(recs) > 0
		needSync := gw.mode == SyncCommit && len(recs) > 0
		doRotate := false
		for _, b := range barriers {
			needFlush = needFlush || b.flush
			needSync = needSync || b.sync
			doRotate = doRotate || b.rotate
		}
		if werr == nil && doRotate && gw.seg.size > segHeaderSize {
			// Rotation seals the active segment (flush+fsync+close inside)
			// with a firstTS above every record written, preserving the
			// header invariant.
			if werr = gw.seg.rotate(gw.bw, upto+1); werr == nil {
				gw.fsyncs.Add(1)
				synced = true
			}
		} else if werr == nil && needSync {
			if werr = gw.seg.sync(gw.bw); werr == nil {
				gw.fsyncs.Add(1)
				synced = true
			}
		} else if werr == nil && needFlush {
			werr = gw.bw.Flush()
		}
		if len(recs) > 0 {
			gw.batches.Add(1)
			gw.batched.Add(int64(len(recs)))
		}

		// Publish: the batch is consumed, and everything written before
		// the fsync is durable.
		l.mu.Lock()
		if werr != nil && l.err == nil {
			l.err = werr
		}
		// max: a bulk load may have moved the cursor past upto meanwhile
		// (commitLog.pass); a batch without records read upto before it.
		l.written = max(l.written, upto)
		l.trimLocked()
		if synced && werr == nil {
			l.durable = max(l.durable, upto)
		}
		l.synced.Broadcast()
		l.mu.Unlock()

		for _, b := range barriers {
			b.done <- werr
		}
	}
}

// write serialises each record into the flusher's buffer and appends it to
// the active segment, rotating first when it would not fit: a record never
// spans two segments, and it becomes the new segment's first.
func (gw *groupWAL) write(recs []*CommitDelta) error {
	for _, d := range recs {
		rec := gw.encode(d)
		if err := gw.seg.maybeRotate(gw.bw, int64(len(rec)), d.ts); err != nil {
			return err
		}
		if _, err := gw.bw.Write(rec); err != nil {
			return err
		}
		gw.seg.size += int64(len(rec))
		if gw.onAppend != nil {
			gw.onAppend(len(rec))
		}
	}
	return nil
}

// encode serialises d into the flusher's reused record buffer.
func (gw *groupWAL) encode(d *CommitDelta) []byte {
	gw.rec = appendCommitRecord(gw.rec[:0], d)
	return gw.rec
}

// close drains and fsyncs the log, stops the flusher and closes the active
// segment. The store is closed first (Persistent.Close), so no commit
// appends behind the drain.
func (gw *groupWAL) close() error {
	err := gw.barrier(walBarrier{sync: true})
	l := gw.log
	l.mu.Lock()
	l.closing = true
	l.work.Signal()
	l.mu.Unlock()
	gw.wg.Wait()
	// The flusher has exited; segment ownership reverts here.
	if cerr := gw.seg.close(gw.bw); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
