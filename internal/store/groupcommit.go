package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// Group commit. The commit protocol splits into a short critical section —
// validate, install, claim the commit timestamp, serialise the redo record
// into the log's pending buffer (all under commitMu) — and an asynchronous
// durability stage: one flusher goroutine drains the pending buffer in
// batches, writing the whole batch with one buffered write and, in
// fsync-on-commit mode, one fsync. Committers that need the durability
// guarantee park on the watermark condition instead of performing the
// fsync themselves, so the fsync cost amortises across every writer that
// deposited into the batch.
//
// Durability watermark. oldestUnsynced is the commit timestamp of the
// oldest deposited-but-not-yet-fsynced record, or math.MaxInt64 when there
// is none. Deposits happen in commit-timestamp order (under commitMu) and
// timestamps are consecutive, so every commit at or below
// oldestUnsynced - 1 is durable. waitDurable(ts) blocks until that
// watermark reaches ts.
//
// Lock ordering: commitMu -> groupWAL.mu.

// WALSyncMode selects the durability barrier applied to each group-commit
// batch.
type WALSyncMode int

const (
	// SyncClose buffers records in the process; they reach the OS on
	// rotation, explicit Flush/Sync barriers, checkpoints and Close. A
	// process crash can lose the buffered tail.
	SyncClose WALSyncMode = iota
	// SyncFlush has the flusher write every batch to the OS (no fsync).
	// Commit still returns at deposit, before that write, so a process
	// crash loses the committed records the flusher had not written yet —
	// the batch with the batcher, at most what commits while one write (or
	// an inline rotation fsync) is in progress — and none it had; a machine
	// crash can lose any record not yet fsynced by a rotation, checkpoint
	// or Sync barrier.
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

// errWALClosed is the sticky batcher error after close; a commit that
// deposits past it reports a partial log, mirroring a failed write.
var errWALClosed = errors.New("store: WAL closed")

// walBarrier is a control message enqueued behind the pending records: the
// flusher drains everything deposited before it, applies the requested
// flush/fsync/rotation, and signals done. Barriers implement FlushWAL,
// SyncWAL and rotateWAL.
type walBarrier struct {
	flush  bool
	sync   bool
	rotate bool
	done   chan error
}

// groupWAL is the group-commit batcher: a pending record buffer filled by
// committers and drained by the flusher goroutine into the segmented log,
// plus the durability watermark committers park on in SyncCommit mode.
type groupWAL struct {
	mode WALSyncMode

	seg    *walSegments  // flusher-owned after start (Open constructs it)
	bw     *bufio.Writer // flusher-owned
	lastTS int64         // flusher-owned; newest record ts written to the segment

	mu       sync.Mutex
	work     *sync.Cond   // on mu; wakes the flusher on deposit, barrier and close
	durable  *sync.Cond   // on mu; wakes waitDurable after every batch
	pending  []byte       // guarded by mu; serialised records awaiting the flusher
	count    int          // guarded by mu; records in pending
	firstTS  int64        // guarded by mu; commit ts of pending's first record
	spare    []byte       // guarded by mu; recycled batch buffer
	barriers []walBarrier // guarded by mu
	closing  bool         // guarded by mu
	// oldestUnsynced is the commit timestamp of the oldest record not yet
	// fsynced (math.MaxInt64 when every deposited record is durable);
	// oldestUnsynced - 1 is the durability watermark.
	oldestUnsynced int64 // guarded by mu
	err            error // guarded by mu; sticky first write/fsync failure

	// onAppend observes each record's size after the flusher writes it
	// (the checkpoint trigger hook); called off the commit path, so a
	// trigger can be slower than a commit without stalling writers.
	onAppend func(recBytes int)

	fsyncs  atomic.Int64
	batches atomic.Int64
	batched atomic.Int64

	wg sync.WaitGroup
}

// newGroupWAL starts the flusher over the opened active segment. lastTS
// must be above every recovered record (the recovered clock), so an
// explicit rotation before any new deposit stamps a sound firstTS.
func newGroupWAL(mode WALSyncMode, seg *walSegments, lastTS int64, onAppend func(int)) *groupWAL {
	gw := &groupWAL{
		mode:           mode,
		seg:            seg,
		bw:             bufio.NewWriterSize(seg.f, 1<<16),
		lastTS:         lastTS,
		oldestUnsynced: math.MaxInt64,
		onAppend:       onAppend,
	}
	gw.work = sync.NewCond(&gw.mu)
	gw.durable = sync.NewCond(&gw.mu)
	gw.wg.Add(1)
	go gw.flusher()
	return gw
}

// deposit serialises one commit's write set into the pending buffer and
// wakes the flusher. Called under commitMu, so deposits happen in commit-
// timestamp order — the property the durability watermark relies on. The
// caller still holds commitMu, so this must not block on IO; it only
// appends and signals.
func (gw *groupWAL) deposit(d *CommitDelta) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.closing {
		if gw.err == nil {
			gw.err = errWALClosed
		}
		gw.durable.Broadcast()
		return
	}
	if gw.count == 0 {
		gw.firstTS = d.ts
	}
	gw.pending = appendCommitRecord(gw.pending, d)
	gw.count++
	if gw.oldestUnsynced == math.MaxInt64 {
		gw.oldestUnsynced = d.ts
	}
	gw.work.Signal()
}

// waitDurable blocks until every commit at or below ts is fsynced (or the
// batcher has failed, returning the sticky error). SyncCommit committers
// call this after releasing commitMu.
func (gw *groupWAL) waitDurable(ts int64) error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	for gw.err == nil && gw.oldestUnsynced <= ts {
		gw.durable.Wait()
	}
	return gw.err
}

// barrier enqueues b behind the pending records and waits for the flusher
// to drain and acknowledge it.
func (gw *groupWAL) barrier(b walBarrier) error {
	b.done = make(chan error, 1)
	gw.mu.Lock()
	gw.barriers = append(gw.barriers, b)
	gw.work.Signal()
	gw.mu.Unlock()
	return <-b.done
}

// flusher is the log's single writer goroutine: wait for pending records or
// a barrier, swap the pending buffer out (double-buffered, so committers
// never wait on IO), write the batch record-by-record through the segment
// rotation logic, apply the batch's durability barrier, then publish the
// new durability watermark.
func (gw *groupWAL) flusher() {
	defer gw.wg.Done()
	for {
		gw.mu.Lock()
		for gw.count == 0 && len(gw.barriers) == 0 && !gw.closing {
			gw.work.Wait()
		}
		if gw.count == 0 && len(gw.barriers) == 0 {
			gw.mu.Unlock()
			return
		}
		batch := gw.pending
		nrec := gw.count
		gw.pending = gw.spare[:0]
		gw.spare = nil
		gw.count = 0
		barriers := gw.barriers
		gw.barriers = nil
		gw.mu.Unlock()

		// Write phase: flusher-owned state only, no locks held.
		var werr error
		synced := false
		for off := 0; off < len(batch); {
			rlen := 8 + int(binary.LittleEndian.Uint32(batch[off:]))
			rec := batch[off : off+rlen]
			ts := int64(binary.LittleEndian.Uint64(rec[8:16]))
			// Rotate before the append so a record never spans two
			// segments; the incoming record's timestamp becomes the new
			// segment's firstTS.
			if werr = gw.seg.maybeRotate(gw.bw, int64(rlen), ts); werr != nil {
				break
			}
			if _, werr = gw.bw.Write(rec); werr != nil {
				break
			}
			gw.seg.size += int64(rlen)
			gw.lastTS = ts
			if gw.onAppend != nil {
				gw.onAppend(rlen)
			}
			off += rlen
		}
		needFlush := gw.mode == SyncFlush && nrec > 0
		needSync := gw.mode == SyncCommit && nrec > 0
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
			if werr = gw.seg.rotate(gw.bw, gw.lastTS+1); werr == nil {
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
		if nrec > 0 {
			gw.batches.Add(1)
			gw.batched.Add(int64(nrec))
		}

		// Publish: everything written before the fsync is durable, so the
		// oldest unsynced record is the first one deposited since the swap.
		gw.mu.Lock()
		if werr != nil && gw.err == nil {
			gw.err = werr
		}
		if synced && werr == nil {
			if gw.count > 0 {
				gw.oldestUnsynced = gw.firstTS
			} else {
				gw.oldestUnsynced = math.MaxInt64
			}
		}
		gw.durable.Broadcast()
		if gw.spare == nil {
			gw.spare = batch[:0]
		}
		gw.mu.Unlock()

		for _, b := range barriers {
			b.done <- werr
		}
	}
}

// close drains and fsyncs the log, stops the flusher and closes the active
// segment. Further deposits fail with errWALClosed.
func (gw *groupWAL) close() error {
	err := gw.barrier(walBarrier{sync: true})
	gw.mu.Lock()
	gw.closing = true
	gw.work.Signal()
	gw.mu.Unlock()
	gw.wg.Wait()
	// The flusher has exited; segment ownership reverts here. The barrier
	// above already synced, but records may have raced in behind it, so
	// close with the full flush+fsync path.
	if cerr := gw.seg.close(gw.bw); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
