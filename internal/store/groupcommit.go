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
// into a lane's pending buffer (all under commitMu) — and an asynchronous
// durability stage: one flusher goroutine per WAL lane drains its pending
// buffer in batches, writing the whole batch with one buffered write and,
// in fsync-on-commit mode, one fsync. Committers that need the durability
// guarantee park on a global watermark condition instead of performing the
// fsync themselves, so the fsync cost amortises across every writer that
// deposited into the batch.
//
// Lanes. Records are distributed round-robin over lanes by commit
// timestamp: lane(ts) = (ts-1) mod nLanes. Each record carries the global
// commit timestamp (appendCommitRecord), so the merged total order is
// reconstructible at recovery by sorting the union of the per-lane streams
// — see recovery.go. Within a lane timestamps are strictly increasing,
// which is the invariant segment-header coverage checks rely on
// (segment.go).
//
// Durability watermark. Lane i tracks oldestUnsynced — the commit
// timestamp of its oldest deposited-but-not-yet-fsynced record, or
// math.MaxInt64 when it has none. Because deposits happen in global
// timestamp order (under commitMu) and each lane's timestamps are
// monotone, every commit at or below min_i(oldestUnsynced_i) - 1 is
// durable on every lane. waitDurable(ts) blocks until that watermark
// reaches ts.
//
// Lock ordering: commitMu -> walLane.mu -> groupWAL.wmMu.

// WALSyncMode selects the durability barrier applied to each group-commit
// batch.
type WALSyncMode int

const (
	// SyncClose buffers records in the process; they reach the OS on
	// rotation, explicit Flush/Sync barriers, checkpoints and Close. A
	// process crash can lose the buffered tail.
	SyncClose WALSyncMode = iota
	// SyncFlush has the lane's flusher write every batch to the OS (no
	// fsync). Commit still returns at deposit, before that write, so a
	// process crash loses the committed records the flusher had not written
	// yet — the batch with the batcher, at most what commits while one
	// write (or an inline rotation fsync) is in progress — and none it had;
	// a machine crash can lose any record not yet fsynced by a rotation,
	// checkpoint or Sync barrier.
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

// laneFor distributes commit timestamps round-robin over lanes.
func laneFor(ts int64, lanes int) int { return int((ts - 1) % int64(lanes)) }

// laneBarrier is a control message enqueued behind a lane's pending
// records: the flusher drains everything deposited before it, applies the
// requested flush/fsync/rotation, and signals done. Barriers implement
// FlushWAL, SyncWAL and rotateWAL on the batched path.
type laneBarrier struct {
	flush  bool
	sync   bool
	rotate bool
	done   chan error
}

// walLane is one WAL lane: a pending record buffer filled by committers
// and drained by the lane's flusher goroutine into its segmented file.
type walLane struct {
	id  int
	seg *walSegments  // flusher-owned after start (Open constructs it)
	bw  *bufio.Writer // flusher-owned

	mu       sync.Mutex
	cond     *sync.Cond    // signalled on deposit, barrier and close
	pending  []byte        // guarded by mu; serialised records awaiting the flusher
	count    int           // guarded by mu; records in pending
	firstTS  int64         // guarded by mu; commit ts of pending's first record
	spare    []byte        // guarded by mu; recycled batch buffer
	barriers []laneBarrier // guarded by mu
	closing  bool          // guarded by mu

	// oldestUnsynced is the commit timestamp of this lane's oldest record
	// not yet fsynced (math.MaxInt64 when every deposited record is
	// durable). It feeds the global durability watermark.
	oldestUnsynced int64 // guarded by wmMu

	lastTS int64 // flusher-owned; newest record ts written to the segment
}

// groupWAL is the group-commit batcher: the set of WAL lanes, their
// flusher goroutines, and the global durability watermark committers park
// on in SyncCommit mode.
type groupWAL struct {
	mode     WALSyncMode
	lanes    []*walLane
	maxBatch int // max records per flush batch; 0 = drain everything pending

	wmMu   sync.Mutex
	wmCond *sync.Cond
	err    error // guarded by wmMu; sticky first write/fsync failure

	// onAppend observes each record's size after the flusher writes it
	// (the checkpoint trigger hook); called off the commit path, so a
	// trigger can be slower than a commit without stalling writers.
	onAppend func(recBytes int)

	fsyncs  atomic.Int64
	batches atomic.Int64
	batched atomic.Int64

	wg sync.WaitGroup
}

// newGroupWAL wires one flusher per lane over the opened active segments.
// lastTS must be above every recovered record (the recovered clock), so an
// explicit rotation before any new deposit stamps a sound firstTS.
func newGroupWAL(mode WALSyncMode, segs []*walSegments, maxBatch int, lastTS int64, onAppend func(int)) *groupWAL {
	gw := &groupWAL{mode: mode, maxBatch: maxBatch, onAppend: onAppend}
	gw.wmCond = sync.NewCond(&gw.wmMu)
	for i, seg := range segs {
		l := &walLane{
			id:             i,
			seg:            seg,
			bw:             bufio.NewWriterSize(seg.f, 1<<16),
			oldestUnsynced: math.MaxInt64,
			lastTS:         lastTS,
		}
		l.cond = sync.NewCond(&l.mu)
		gw.lanes = append(gw.lanes, l)
	}
	for _, l := range gw.lanes {
		gw.wg.Add(1)
		go gw.flusher(l)
	}
	return gw
}

// deposit serialises one committed transaction into its lane's pending
// buffer and wakes the lane's flusher. Called under commitMu, so deposits
// happen in global commit-timestamp order — the property the durability
// watermark relies on. The caller still holds commitMu, so this must not
// block on IO; it only appends and signals.
func (gw *groupWAL) deposit(ts int64, created []*pendingNode, sets []pendingProp, edges []pendingEdge, dels []pendingDel) {
	l := gw.lanes[laneFor(ts, len(gw.lanes))]
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		gw.wmMu.Lock()
		if gw.err == nil {
			gw.err = errWALClosed
		}
		gw.wmCond.Broadcast()
		gw.wmMu.Unlock()
		return
	}
	if l.count == 0 {
		l.firstTS = ts
	}
	l.pending = appendCommitRecord(l.pending, ts, created, sets, edges, dels)
	l.count++
	l.cond.Signal()
	// Holding l.mu across the watermark update makes it atomic with the
	// append: the flusher recomputes oldestUnsynced under both locks, so it
	// can never overwrite this deposit's claim with a stale "drained".
	gw.wmMu.Lock()
	if l.oldestUnsynced == math.MaxInt64 {
		l.oldestUnsynced = ts
	}
	gw.wmMu.Unlock()
	l.mu.Unlock()
}

// watermarkLocked returns the newest commit timestamp durable on every
// lane: min over lanes of oldestUnsynced, minus one.
//
//snb:locked wmMu
func (gw *groupWAL) watermarkLocked() int64 {
	wm := int64(math.MaxInt64)
	for _, l := range gw.lanes {
		if l.oldestUnsynced <= wm {
			wm = l.oldestUnsynced - 1
		}
	}
	return wm
}

// waitDurable blocks until every commit at or below ts is fsynced (or the
// batcher has failed, returning the sticky error). SyncCommit committers
// call this after releasing commitMu.
func (gw *groupWAL) waitDurable(ts int64) error {
	gw.wmMu.Lock()
	defer gw.wmMu.Unlock()
	for gw.err == nil && gw.watermarkLocked() < ts {
		gw.wmCond.Wait()
	}
	return gw.err
}

// barrier enqueues b behind every lane's pending records and waits for all
// lanes to drain and acknowledge it. The returned error is the first lane
// failure, if any.
func (gw *groupWAL) barrier(b laneBarrier) error {
	b.done = make(chan error, len(gw.lanes))
	for _, l := range gw.lanes {
		l.mu.Lock()
		l.barriers = append(l.barriers, b)
		l.cond.Signal()
		l.mu.Unlock()
	}
	var err error
	for range gw.lanes {
		if e := <-b.done; e != nil && err == nil {
			err = e
		}
	}
	return err
}

// flusher is a lane's single writer goroutine: wait for pending records or
// a barrier, swap the pending buffer out (double-buffered, so committers
// never wait on IO), write the batch record-by-record through the lane's
// segment rotation logic, apply the batch's durability barrier, then
// publish the new durability watermark.
func (gw *groupWAL) flusher(l *walLane) {
	defer gw.wg.Done()
	for {
		l.mu.Lock()
		for l.count == 0 && len(l.barriers) == 0 && !l.closing {
			l.cond.Wait()
		}
		if l.closing && l.count == 0 && len(l.barriers) == 0 {
			l.mu.Unlock()
			return
		}
		batch := l.pending
		nrec := l.count
		l.pending = l.spare[:0]
		l.spare = nil
		l.count = 0
		if gw.maxBatch > 0 && nrec > gw.maxBatch {
			// Cap the batch: keep the tail pending. Records are
			// self-describing (len prefix), so the split offset is a scan.
			off := 0
			for i := 0; i < gw.maxBatch; i++ {
				off += 8 + int(binary.LittleEndian.Uint32(batch[off:]))
			}
			l.pending = append(l.pending, batch[off:]...)
			l.count = nrec - gw.maxBatch
			l.firstTS = int64(binary.LittleEndian.Uint64(batch[off+8:]))
			batch = batch[:off]
			nrec = gw.maxBatch
		}
		barriers := l.barriers
		l.barriers = nil
		l.mu.Unlock()

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
			if werr = l.seg.maybeRotate(l.bw, int64(rlen), ts); werr != nil {
				break
			}
			if _, werr = l.bw.Write(rec); werr != nil {
				break
			}
			l.seg.size += int64(rlen)
			l.lastTS = ts
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
		if werr == nil && doRotate && l.seg.size > segHeaderSize {
			// Rotation seals the active segment (flush+fsync+close inside)
			// with a firstTS above every record written, preserving the
			// per-lane header invariant.
			if werr = l.seg.rotate(l.bw, l.lastTS+1); werr == nil {
				gw.fsyncs.Add(1)
				synced = true
			}
		} else if werr == nil && needSync {
			if werr = l.seg.sync(l.bw); werr == nil {
				gw.fsyncs.Add(1)
				synced = true
			}
		} else if werr == nil && needFlush {
			werr = l.bw.Flush()
		}
		if nrec > 0 {
			gw.batches.Add(1)
			gw.batched.Add(int64(nrec))
		}

		// Publish: recompute the lane's oldest unsynced record and wake
		// watermark waiters. Both locks, in order, so a concurrent deposit
		// cannot be missed (see deposit).
		l.mu.Lock()
		gw.wmMu.Lock()
		if werr != nil && gw.err == nil {
			gw.err = werr
		}
		if synced && werr == nil {
			if l.count > 0 {
				l.oldestUnsynced = l.firstTS
			} else {
				l.oldestUnsynced = math.MaxInt64
			}
		}
		gw.wmCond.Broadcast()
		gw.wmMu.Unlock()
		if l.spare == nil {
			l.spare = batch[:0]
		}
		l.mu.Unlock()

		for _, b := range barriers {
			b.done <- werr
		}
	}
}

// close drains and fsyncs every lane, stops the flushers and closes the
// segment files. Further deposits fail with errWALClosed.
func (gw *groupWAL) close() error {
	err := gw.barrier(laneBarrier{sync: true})
	for _, l := range gw.lanes {
		l.mu.Lock()
		l.closing = true
		l.cond.Signal()
		l.mu.Unlock()
	}
	gw.wg.Wait()
	// Flushers have exited; segment ownership reverts here. The barrier
	// above already synced, but records may have raced in behind it, so
	// close with the full flush+fsync path.
	for _, l := range gw.lanes {
		if cerr := l.seg.close(l.bw); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// walBytes sums the logical record bytes (headers excluded) across every
// lane's active segment. Flushers own seg.size, so this is only exact at
// quiescence (after a barrier); Stats uses it for reporting.
func (gw *groupWAL) walBytes() int64 {
	var n int64
	for _, l := range gw.lanes {
		n += l.seg.size - segHeaderSize
	}
	return n
}

// rotationCount sums lane rotations (atomic; safe concurrent with
// flushers).
func (gw *groupWAL) rotationCount() int64 {
	var n int64
	for _, l := range gw.lanes {
		n += l.seg.rotations.Load()
	}
	return n
}
