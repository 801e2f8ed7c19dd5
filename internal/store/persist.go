package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Durable store lifecycle: Open ties a Store to a data directory holding a
// segmented WAL (segment.go) and a set of checkpoints (checkpoint.go), and
// returns a Persistent handle that keeps the two coordinated — commits
// append redo records to the active segment, a background checkpointer
// periodically freezes a snapshot view to disk and truncates the covered
// log prefix, and a later Open recovers by loading the newest valid
// checkpoint and replaying only the WAL tail.
//
// Layout of a data directory:
//
//	<dir>/
//	  ckpt-<clock>.ckpt          checkpoints, newest wins (checkpoint.go)
//	  wal/wal-<seq>.seg          WAL segments, ascending (segment.go)

// PersistOptions configures Open. The zero value is usable: 4 MiB
// segments, flush-on-close durability, auto-checkpoint every 32 MiB of WAL,
// two checkpoints retained.
type PersistOptions struct {
	// SegmentBytes is the WAL rotation threshold: the active segment is
	// sealed once appending would push it past this size (default 4 MiB).
	SegmentBytes int64
	// WALLanes is a vestige of the retired multi-lane log.
	//
	// Deprecated: the log has one lane; 0 and 1 are accepted, anything else
	// fails Open with ErrMultiLaneWAL.
	WALLanes int
	// WALSync selects the per-batch durability barrier (see WALSyncMode).
	// The default, SyncClose, is flush-on-close: a machine crash may lose
	// the records buffered since the last SyncWAL/Close/checkpoint rotation
	// (process death alone loses at most the in-process buffers, which
	// SyncWAL and Close drain).
	WALSync WALSyncMode
	// CheckpointBytes triggers a background checkpoint once this many WAL
	// bytes accumulate since the last one (0 = default 32 MiB, negative =
	// never trigger by bytes).
	CheckpointBytes int64
	// CheckpointCommits triggers a background checkpoint once this many
	// commits accumulate since the last one (0 = never trigger by count).
	CheckpointCommits int64
	// KeepSegments disables WAL truncation after checkpoints, retaining
	// the full log from the first commit (offline replay, ablations,
	// point-in-time inspection).
	KeepSegments bool
}

const defaultCheckpointBytes = 32 << 20

// retainCheckpoints is how many checkpoints stay on disk: the newest plus
// one fallback for torn-checkpoint crashes.
const retainCheckpoints = 2

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// Fresh is true when the directory held no usable state (new database).
	Fresh bool
	// CheckpointTS is the commit clock of the checkpoint recovery loaded
	// (0 when recovery fell back to full WAL replay).
	CheckpointTS int64
	// BadCheckpoints lists checkpoint files skipped as invalid (CRC or
	// format failures); recovery fell back to the next older one.
	BadCheckpoints []string
	// SegmentsScanned and SegmentsSkipped count WAL segments replayed vs
	// proven wholly covered by the checkpoint from their headers alone.
	SegmentsScanned, SegmentsSkipped int
	// Replayed and Skipped count WAL records applied vs records below the
	// checkpoint clock inside the boundary segment.
	Replayed, Skipped int
	// TornBytes is the size of the incomplete records discarded from the
	// tail of the last segment (crash mid-append).
	TornBytes int64
	// Clock is the store's commit clock after recovery.
	Clock int64
}

// PersistStats is a point-in-time snapshot of a Persistent's durability
// counters.
type PersistStats struct {
	// Checkpoints is the number of checkpoints taken since Open;
	// LastCheckpointTS is the commit clock of the newest durable one
	// (including one recovered from disk).
	Checkpoints      int64
	LastCheckpointTS int64
	// WALBytes counts redo bytes appended since Open; WALRotations counts
	// segment seals; SegmentsRemoved counts segments truncated as covered.
	WALBytes        int64
	WALRotations    int64
	SegmentsRemoved int64
	// Group-commit flusher counters: Fsyncs is durability barriers issued,
	// Batches is flush batches written, BatchedRecords the records they
	// carried — fsyncs/commit and records/batch are the amortisation
	// metrics BenchmarkWrite tracks.
	Fsyncs         int64
	Batches        int64
	BatchedRecords int64
}

// Persistent is a Store bound to a data directory. All Store methods are
// available; the handle adds the durability surface (Checkpoint, Sync,
// Close, Stats). Close must be called to release the WAL cleanly — after
// Close the store stays readable but further commits fail.
type Persistent struct {
	*Store
	dir    string
	walDir string
	opts   PersistOptions

	// ckptMu serialises checkpoints (manual and background).
	ckptMu sync.Mutex

	lastCkptTS   atomic.Int64
	checkpoints  atomic.Int64
	walBytes     atomic.Int64
	bytesSince   atomic.Int64
	commitsSince atomic.Int64
	segsRemoved  atomic.Int64

	kick   chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	errMu   sync.Mutex
	ckptErr error

	// Crash-injection test hooks; see persist_test.go.
	hookAfterRotate  func()
	hookBeforeRename func()
}

// Open opens (or creates) a durable store in dir. Recovery loads the newest
// valid checkpoint, falls back through older ones (and ultimately to full
// WAL replay) on validation failures, replays the WAL tail, truncates any
// torn record off the last segment, and reattaches the segmented WAL for
// new commits.
//
// register, when non-nil, runs on the fresh Store before recovery. It is
// deprecated: the store has no secondary indexes, so there is nothing left
// to register; pass nil. The parameter is kept only for benchmark/'s call
// sites.
//
// The returned RecoveryInfo is valid even when err != nil is not returned;
// on error the store is unusable and no background work is running.
func Open(dir string, opts PersistOptions, register func(*Store)) (*Persistent, *RecoveryInfo, error) {
	if opts.WALLanes < 0 || opts.WALLanes > 1 {
		return nil, nil, fmt.Errorf("%w: WALLanes = %d", ErrMultiLaneWAL, opts.WALLanes)
	}
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, err
	}
	// Scanned before anything in dir is removed or truncated: a directory
	// this build cannot replay in full is refused untouched.
	segs, err := scanSegments(walDir)
	if err != nil {
		return nil, nil, err
	}
	s := New()
	if register != nil {
		register(s)
	}
	info := &RecoveryInfo{}

	// Newest valid checkpoint, falling back through invalid ones. A
	// validation failure taints nothing — loadCheckpoint validates the
	// whole file (CRC) before installing anything.
	cks, err := scanCheckpoints(dir)
	if err != nil {
		return nil, info, err
	}
	for _, ck := range cks {
		clock, err := loadCheckpoint(s, ck.path)
		if err == nil {
			info.CheckpointTS = clock
			break
		}
		// Corruption and format-version mismatches both fall back to the
		// next older checkpoint (ultimately to full WAL replay — the WAL
		// format is version-stable, so logs written beside older checkpoint
		// versions replay unchanged).
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errCkptVersion) {
			return nil, info, err // the file could not be read
		}
		info.BadCheckpoints = append(info.BadCheckpoints, filepath.Base(ck.path))
	}

	// Replay the WAL tail above the checkpoint clock (recovery.go).
	validLen, err := s.recoverSegments(segs, info.CheckpointTS, info)
	if err != nil {
		return nil, info, err
	}
	removeStaleTemps(dir)
	info.Clock = s.clock.Load()
	info.Fresh = info.CheckpointTS == 0 && info.Clock == 0

	p := &Persistent{
		Store:  s,
		dir:    dir,
		walDir: walDir,
		opts:   opts,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	if p.opts.CheckpointBytes == 0 {
		p.opts.CheckpointBytes = defaultCheckpointBytes
	}
	p.lastCkptTS.Store(info.CheckpointTS)

	// The active segment, then the group-commit flusher over it.
	seg, err := openActiveSegment(walDir, opts.SegmentBytes, segs, validLen, info.Clock+1)
	if err != nil {
		return nil, info, err
	}
	s.gwal = newGroupWAL(opts.WALSync, seg, &s.log, info.Clock, p.onAppend)
	s.durable = p

	p.wg.Add(1)
	go p.checkpointLoop()
	return p, info, nil
}

// removeStaleTemps deletes checkpoint temp files left by a crash between
// temp write and rename. Best-effort: a leftover temp is never read by
// recovery (scanCheckpoints ignores it), only disk litter.
func removeStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ckptPrefix) && strings.HasSuffix(e.Name(), ckptTmpSuffix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// onAppend is the WAL append hook: account the record and wake the
// background checkpointer when a trigger threshold is crossed. Runs on the
// flusher goroutine — cheap atomics and a non-blocking send only.
func (p *Persistent) onAppend(n int) {
	p.walBytes.Add(int64(n))
	b := p.bytesSince.Add(int64(n))
	c := p.commitsSince.Add(1)
	if (p.opts.CheckpointBytes > 0 && b >= p.opts.CheckpointBytes) ||
		(p.opts.CheckpointCommits > 0 && c >= p.opts.CheckpointCommits) {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// checkpointLoop is the background checkpointer: it waits for trigger
// kicks from the append hook and re-checks the thresholds before paying
// for a checkpoint (the kick channel is lossy by design — one pending kick
// is enough, and a checkpoint resets the counters).
func (p *Persistent) checkpointLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			if (p.opts.CheckpointBytes > 0 && p.bytesSince.Load() >= p.opts.CheckpointBytes) ||
				(p.opts.CheckpointCommits > 0 && p.commitsSince.Load() >= p.opts.CheckpointCommits) {
				if err := p.Checkpoint(); err != nil {
					p.errMu.Lock()
					p.ckptErr = err
					p.errMu.Unlock()
				}
			}
		}
	}
}

// Checkpoint takes a durable checkpoint now and truncates the covered WAL
// prefix. The sequence — rotate the active segment, freeze the current
// snapshot view, serialise it to a temp file, fsync, rename, then delete
// covered segments and stale checkpoints — is crash-consistent at every
// step: a kill between any two leaves either the new checkpoint or a
// recoverable older state, never a hole (persist_test.go injects crashes
// at each boundary).
//
// The write path never stops: the checkpoint serialises an immutable
// SnapshotView while commits continue appending to the fresh active
// segment. Returns nil without writing when nothing committed since the
// last checkpoint.
func (p *Persistent) Checkpoint() error {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()

	// Seal the log so everything at or below the view's clock lives in
	// sealed segments; records landing after this instant go to the new
	// active segment and stay as the replay tail.
	if err := p.Store.rotateWAL(); err != nil {
		return err
	}
	if p.hookAfterRotate != nil {
		p.hookAfterRotate()
	}
	v := p.Store.CurrentView()
	if v.Timestamp() <= p.lastCkptTS.Load() {
		p.bytesSince.Store(0)
		p.commitsSince.Store(0)
		return nil
	}
	return p.checkpointLocked(v)
}

// checkpointBulk makes the bulk load at ts durable (Store.Load): the view
// at ts, built and cached here, becomes the checkpoint that stands in for
// the WAL record the load does not write. The caller holds ckptMu, viewMu
// and commitMu, so no commit reaches the WAL before the checkpoint is on
// disk: a log that goes on at ts+1 cannot be replayed without it. For the
// same reason a failure closes the store to commits.
//
//snb:locked ckptMu viewMu commitMu
func (p *Persistent) checkpointBulk(ts int64) error {
	s := p.Store
	old := s.view.Load()
	s.log.moveView(ts, true)
	if err := p.checkpointLocked(s.rebuild(ts, old)); err != nil {
		s.closed.Store(true)
		return fmt.Errorf("store: bulk load at commit %d not durable, store closed: %w", ts, err)
	}
	return nil
}

// checkpointLocked writes v as the newest checkpoint, prunes older ones and
// truncates the WAL segments the oldest retained one covers.
//
//snb:locked ckptMu
func (p *Persistent) checkpointLocked(v *SnapshotView) error {
	ts := v.Timestamp()
	if _, err := writeCheckpoint(p.dir, v, p.hookBeforeRename); err != nil {
		return err
	}
	p.lastCkptTS.Store(ts)
	p.checkpoints.Add(1)
	p.bytesSince.Store(0)
	p.commitsSince.Store(0)

	if err := pruneCheckpoints(p.dir); err != nil {
		return err
	}
	if !p.opts.KeepSegments {
		// Truncate to the OLDEST retained checkpoint, not the one just
		// written: if the newest file is later found torn or bit-rotted,
		// recovery falls back to an older checkpoint and still needs every
		// record above THAT one. (If every retained checkpoint validates
		// bad at recovery, Open reports the missing prefix explicitly
		// rather than silently replaying a hole.)
		cks, err := scanCheckpoints(p.dir)
		if err != nil {
			return err
		}
		truncTS := ts
		if len(cks) > 0 {
			truncTS = cks[len(cks)-1].ts // scanCheckpoints sorts newest-first
		}
		n, err := removeCoveredSegments(p.walDir, truncTS)
		p.segsRemoved.Add(int64(n))
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckpointTS returns the commit clock of the newest durable checkpoint
// (0 when none exists yet): recovery restores it and replays only the
// log above it.
func (p *Persistent) CheckpointTS() int64 { return p.lastCkptTS.Load() }

// Sync flushes and fsyncs the WAL: every commit that completed before the
// call is durable when Sync returns.
func (p *Persistent) Sync() error { return p.Store.SyncWAL() }

// Err returns the most recent background checkpoint failure, if any.
func (p *Persistent) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.ckptErr
}

// Stats snapshots the durability counters.
func (p *Persistent) Stats() PersistStats {
	gw := p.Store.gwal
	return PersistStats{
		Checkpoints:      p.checkpoints.Load(),
		LastCheckpointTS: p.lastCkptTS.Load(),
		WALBytes:         p.walBytes.Load(),
		WALRotations:     gw.seg.rotations.Load(),
		SegmentsRemoved:  p.segsRemoved.Load(),
		Fsyncs:           gw.fsyncs.Load(),
		Batches:          gw.batches.Load(),
		BatchedRecords:   gw.batched.Load(),
	}
}

// Close stops the background checkpointer, drains and fsyncs the WAL and
// closes the active segment: a clean shutdown, after which Open recovers
// every committed transaction. Close does not checkpoint — call
// Checkpoint first when the next Open should skip tail replay. Idempotent.
func (p *Persistent) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Fence the commit path first: MarkClosed waits for in-flight critical
	// sections (their appends land before the drain below) and makes every
	// later Commit fail with ErrStoreClosed instead of racing the closing
	// log.
	p.Store.MarkClosed()
	close(p.stop)
	p.wg.Wait()
	return p.Store.gwal.close()
}
