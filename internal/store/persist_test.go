package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// Durable checkpoint + segmented WAL tests: round trips, the
// checkpoint-plus-tail recovery path, crash injection at every boundary of
// the checkpoint sequence, torn and corrupt segments, fsync-on-commit
// semantics, and the recovered-equals-live equivalence property at every
// epoch of a randomised update stream.

// copyDir simulates the surviving disk image at a crash point: a recursive
// file copy of the data directory.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertStoresEqual compares two stores' full visible state at their
// current clocks: every read primitive over the union population, and the
// checkpoint encodings of their views — byte-equal exactly when every node,
// property, adjacency row (all types, both directions) and kind list is.
func assertStoresEqual(t *testing.T, live, rec *Store, pop []ids.ID) {
	t.Helper()
	if lc, rc := live.LastCommit(), rec.LastCommit(); lc != rc {
		t.Fatalf("clocks diverge: live %d recovered %d", lc, rc)
	}
	lv, rv := live.CurrentView(), rec.CurrentView()
	assertViewMatchesRebuild(t, rv, lv)
	rec.View(func(tx *Txn) {
		assertViewMatchesTxn(t, rec, lv, tx, pop)
	})
	var lb, rb bytes.Buffer
	if err := errors.Join(encodeCheckpoint(&lb, lv), encodeCheckpoint(&rb, rv)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
		t.Fatalf("checkpoint encodings diverge: live %d B, recovered %d B", lb.Len(), rb.Len())
	}
}

// growBoth applies one identical random graph step to the live in-memory
// store and the persistent store. Two rngs with the same seed stay in
// lockstep because both stores hold identical state at every step.
func growBoth(t *testing.T, live, dur *Store, rl, rd *xrand.Rand, pop []ids.ID, step int) []ids.ID {
	t.Helper()
	popD := append([]ids.ID(nil), pop...)
	popL := randomGraphStep(t, live, rl, pop, step)
	popD = randomGraphStep(t, dur, rd, popD, step)
	if len(popL) != len(popD) {
		t.Fatalf("step %d: populations diverged (%d vs %d)", step, len(popL), len(popD))
	}
	return popL
}

// reopen recovers a data directory into a fresh store and returns the
// handle plus recovery info, failing the test on error.
func reopen(t *testing.T, dir string, opts PersistOptions) (*Persistent, *RecoveryInfo) {
	t.Helper()
	p, info, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	t.Cleanup(func() { p.Close() })
	return p, info
}

// manualOpts disables background checkpoints so tests control the
// checkpoint schedule deterministically.
func manualOpts() PersistOptions {
	return PersistOptions{CheckpointBytes: -1}
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, info, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh {
		t.Fatalf("fresh dir not reported fresh: %+v", info)
	}

	live := New()
	rl, rd := xrand.New(7), xrand.New(7)
	var pop []ids.ID
	for step := 1; step <= 20; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
		if step == 12 {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	preClock := p.LastCommit()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS == 0 {
		t.Fatalf("recovery ignored the checkpoint: %+v", info)
	}
	if info.Clock != preClock {
		t.Fatalf("recovered clock %d, want %d", info.Clock, preClock)
	}
	if info.Replayed == 0 {
		t.Fatalf("expected a WAL tail after the checkpoint: %+v", info)
	}
	assertStoresEqual(t, live, re.Store, pop)

	// The recovered store accepts new durable commits.
	tx := re.Begin()
	if err := tx.CreateNode(personID(9001), Props{NewProp(PropFirstName, String("ada"))}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, info := reopen(t, dir, manualOpts())
	if !re2.CurrentView().Exists(personID(9001)) {
		t.Fatalf("post-recovery commit lost: %+v", info)
	}
}

func TestPersistFullReplayFallback(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	rl, rd := xrand.New(3), xrand.New(3)
	var pop []ids.ID
	for step := 1; step <= 15; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS != 0 || info.Replayed != int(live.LastCommit()) {
		t.Fatalf("full replay expected: %+v (live clock %d)", info, live.LastCommit())
	}
	assertStoresEqual(t, live, re.Store, pop)
}

// TestPersistEquivalenceEveryEpoch is the recovery equivalence property:
// at every epoch of a randomised interleaved update stream (creations,
// prop updates, edge inserts), a crash image synced at that
// epoch recovers to exactly the live store's state at the same clock —
// through checkpoints taken mid-stream, across segment rotations, on both
// the view and MVCC read paths, indexes included.
func TestPersistEquivalenceEveryEpoch(t *testing.T) {
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = 512 // force frequent rotation
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	live := New()
	rl, rd := xrand.New(11), xrand.New(11)
	var pop []ids.ID
	for step := 1; step <= 24; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
		if step%9 == 0 {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		crash := filepath.Join(t.TempDir(), "crash")
		copyDir(t, dir, crash)
		re, info := reopen(t, crash, manualOpts())
		if info.Clock != live.LastCommit() {
			t.Fatalf("step %d: recovered clock %d, live %d (%+v)", step, info.Clock, live.LastCommit(), info)
		}
		assertStoresEqual(t, live, re.Store, pop)
		re.Close()
	}
	if st := p.Stats(); st.WALRotations == 0 || st.Checkpoints == 0 {
		t.Fatalf("sweep never rotated or checkpointed: %+v", st)
	}
}

// TestCrashBetweenRotationAndCheckpoint injects a kill on the exact
// boundary the checkpointer is most exposed on: the active segment was
// just sealed and a fresh one opened, but the checkpoint itself never
// became durable. Recovery must fall back to the previous durable state
// and replay across the rotation boundary without losing a commit.
func TestCrashBetweenRotationAndCheckpoint(t *testing.T) {
	for _, withPrior := range []bool{false, true} {
		dir := t.TempDir()
		p, _, err := Open(dir, manualOpts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		live := New()
		rl, rd := xrand.New(5), xrand.New(5)
		var pop []ids.ID
		for step := 1; step <= 8; step++ {
			pop = growBoth(t, live, p.Store, rl, rd, pop, step)
		}
		if withPrior {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for step := 9; step <= 12; step++ {
				pop = growBoth(t, live, p.Store, rl, rd, pop, step)
			}
		}
		crash := filepath.Join(t.TempDir(), "crash")
		p.hookAfterRotate = func() {
			if err := p.Store.FlushWAL(); err != nil { // rotation already fsynced sealed segments
				t.Fatal(err)
			}
			copyDir(t, dir, crash)
		}
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		p.Close()

		re, info := reopen(t, crash, manualOpts())
		if withPrior && info.CheckpointTS == 0 {
			t.Fatalf("prior checkpoint not used: %+v", info)
		}
		if info.Clock != live.LastCommit() {
			t.Fatalf("withPrior=%v: recovered clock %d, live %d (%+v)", withPrior, info.Clock, live.LastCommit(), info)
		}
		assertStoresEqual(t, live, re.Store, pop)
	}
}

// TestCrashBeforeCheckpointRename kills between the checkpoint temp-file
// fsync and the rename: the crash image holds a complete but unpublished
// checkpoint. Recovery must ignore the temp file.
func TestCrashBeforeCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	rl, rd := xrand.New(6), xrand.New(6)
	var pop []ids.ID
	for step := 1; step <= 10; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	crash := filepath.Join(t.TempDir(), "crash")
	p.hookBeforeRename = func() { copyDir(t, dir, crash) }
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	re, info := reopen(t, crash, manualOpts())
	if info.CheckpointTS != 0 {
		t.Fatalf("unpublished checkpoint was loaded: %+v", info)
	}
	if info.Clock != live.LastCommit() {
		t.Fatalf("recovered clock %d, live %d", info.Clock, live.LastCommit())
	}
	assertStoresEqual(t, live, re.Store, pop)
	// The reopened image must not litter: the stale temp is removed.
	ents, _ := os.ReadDir(crash)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ckptTmpSuffix) {
			t.Fatalf("stale checkpoint temp survived reopen: %s", e.Name())
		}
	}
}

// lastSegment returns the path of the highest-numbered WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := scanSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1].path
}

// TestTornRecordAtSegmentBoundary simulates a crash while appending the
// record whose arrival forced a rotation: the record opens a fresh final
// segment and is torn mid-write. Recovery must apply every record of the
// sealed segments, discard the torn tail cleanly, and keep the store
// appendable.
func TestTornRecordAtSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = 256 // every record of this workload forces a rotation
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	rl, rd := xrand.New(9), xrand.New(9)
	var pop []ids.ID
	for step := 1; step <= 6; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final segment's first record a few bytes in: the record
	// "spans" the rotation boundary in the sense that its arrival sealed
	// the previous segment, and the crash hit before it became complete.
	last := lastSegment(t, dir)
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= segHeaderSize {
		t.Fatalf("final segment empty; rotation threshold too large for the workload")
	}
	lost := len(readSegRecords(t, last))
	if lost == 0 {
		t.Fatal("final segment holds no records to tear")
	}
	if err := os.Truncate(last, segHeaderSize+5); err != nil {
		t.Fatal(err)
	}

	re, rec := reopen(t, dir, manualOpts())
	if rec.TornBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	if rec.Clock != live.LastCommit()-int64(lost) {
		t.Fatalf("recovered clock %d, want %d (the %d commits of the torn segment lost)",
			rec.Clock, live.LastCommit()-int64(lost), lost)
	}
	// The store accepts new commits and the re-appended log replays.
	tx := re.Begin()
	if err := tx.CreateNode(personID(9100), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	clock := re.LastCommit()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, rec2 := reopen(t, dir, manualOpts())
	if rec2.Clock != clock || !re2.CurrentView().Exists(personID(9100)) {
		t.Fatalf("re-appended log did not recover: %+v", rec2)
	}
}

// TestGarbageTailInLastSegment: in flush-on-close mode a power loss can
// leave the unsynced tail of the ACTIVE segment zero-filled or garbage
// (filesystem delayed allocation), not just shorter. Recovery must treat
// any undecodable suffix of the last segment like a torn tail — truncate
// at the last valid record and keep the store openable — for both the
// all-zeros shape (which decodes as a len=0 crc=0 record) and random
// garbage (CRC mismatch).
func TestGarbageTailInLastSegment(t *testing.T) {
	for _, shape := range []string{"zeros", "garbage"} {
		dir := t.TempDir()
		p, _, err := Open(dir, manualOpts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		live := New()
		rl, rd := xrand.New(37), xrand.New(37)
		var pop []ids.ID
		for step := 1; step <= 6; step++ {
			pop = growBoth(t, live, p.Store, rl, rd, pop, step)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		tail := make([]byte, 512)
		if shape == "garbage" {
			for i := range tail {
				tail[i] = byte(i*131 + 7)
			}
		}
		last := lastSegment(t, dir)
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		re, info := reopen(t, dir, manualOpts())
		if info.TornBytes != int64(len(tail)) {
			t.Fatalf("%s: torn bytes %d, want %d (%+v)", shape, info.TornBytes, len(tail), info)
		}
		if info.Clock != live.LastCommit() {
			t.Fatalf("%s: recovered clock %d, live %d", shape, info.Clock, live.LastCommit())
		}
		assertStoresEqual(t, live, re.Store, pop)
		// The truncated segment accepts appends and survives another cycle.
		tx := re.Begin()
		if err := tx.CreateNode(personID(9200), nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, info2 := reopen(t, dir, manualOpts())
		if info2.Clock != live.LastCommit()+1 || !re2.CurrentView().Exists(personID(9200)) {
			t.Fatalf("%s: post-truncation commit lost: %+v", shape, info2)
		}
	}
}

// TestCorruptMidChainSegment plants a torn suffix inside a sealed (non
// final) segment — a record that appears to continue into the next segment.
// The writer never spans records across segments, so recovery must refuse
// to replay past the hole and must name the bad segment.
func TestCorruptMidChainSegment(t *testing.T) {
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = 256
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl := xrand.New(4)
	var pop []ids.ID
	for step := 1; step <= 6; step++ {
		pop = randomGraphStep(t, p.Store, rl, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := scanSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}
	victim := segs[1]
	// Append half a record header: a torn record "spanning" into segment 2.
	f, err := os.OpenFile(victim.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(dir, manualOpts(), nil)
	if err == nil {
		t.Fatal("recovery replayed past a mid-chain hole")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(victim.path)) {
		t.Fatalf("error does not name the bad segment: %v", err)
	}
}

// TestCheckpointTruncatesSegments: after a checkpoint, sealed segments
// wholly covered by the oldest retained checkpoint are deleted; recovery
// afterwards skips whatever provably holds nothing above the checkpoint.
func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = 256
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl := xrand.New(8)
	var pop []ids.ID
	for step := 1; step <= 8; step++ {
		pop = randomGraphStep(t, p.Store, rl, pop, step)
	}
	// Drain the group-commit batcher so every record (and its rotations)
	// has reached the directory before counting segments.
	if err := p.Store.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	before, _ := scanSegments(filepath.Join(dir, "wal"))
	if len(before) < 3 {
		t.Fatalf("want >=3 segments before checkpoint, got %d", len(before))
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := scanSegments(filepath.Join(dir, "wal"))
	if len(after) != 1 {
		t.Fatalf("want only the active segment after truncation, got %d", len(after))
	}
	if st := p.Stats(); st.SegmentsRemoved == 0 {
		t.Fatalf("stats did not count removed segments: %+v", st)
	}
	clock := p.LastCommit()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_, info := reopen(t, dir, manualOpts())
	if info.Clock != clock || info.Replayed != 0 {
		t.Fatalf("checkpoint-only recovery expected: %+v", info)
	}
}

// TestBadCheckpointFallsBack corrupts the newest checkpoint: recovery must
// skip it (reporting it) and recover through the older retained checkpoint
// plus the longer WAL tail that truncation deliberately kept for it.
func TestBadCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	rl, rd := xrand.New(13), xrand.New(13)
	var pop []ids.ID
	for step := 1; step <= 6; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for step := 7; step <= 12; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for step := 13; step <= 15; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cks, err := scanCheckpoints(dir)
	if err != nil || len(cks) != 2 {
		t.Fatalf("want 2 retained checkpoints, got %d (%v)", len(cks), err)
	}
	data, err := os.ReadFile(cks[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(cks[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, info := reopen(t, dir, manualOpts())
	if len(info.BadCheckpoints) != 1 || !strings.Contains(info.BadCheckpoints[0], ckptPrefix) {
		t.Fatalf("bad checkpoint not reported: %+v", info)
	}
	if info.CheckpointTS != cks[1].ts {
		t.Fatalf("fallback loaded ts %d, want older checkpoint %d", info.CheckpointTS, cks[1].ts)
	}
	if info.Clock != live.LastCommit() {
		t.Fatalf("recovered clock %d, live %d", info.Clock, live.LastCommit())
	}
	assertStoresEqual(t, live, re.Store, pop)
}

// TestSyncCommitWritesThrough pins the fsync-on-commit durability mode:
// every committed record is on disk before Commit returns, with no flush
// call. The buffered mode keeps records in the process until FlushWAL/Sync.
func TestSyncCommitWritesThrough(t *testing.T) {
	walSize := func(dir string) int64 {
		var total int64
		segs, _ := scanSegments(filepath.Join(dir, "wal"))
		for _, s := range segs {
			total += s.size - segHeaderSize
		}
		return total
	}
	commitOne := func(p *Persistent, n uint32) {
		tx := p.Begin()
		if err := tx.CreateNode(personID(n), Props{NewProp(PropFirstName, String("ada"))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	opts := manualOpts()
	opts.WALSync = SyncCommit
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitOne(p, 1)
	if walSize(dir) == 0 {
		t.Fatal("fsync-on-commit left the record buffered in the process")
	}
	p.Close()

	dir2 := t.TempDir()
	p2, _, err := Open(dir2, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	commitOne(p2, 1)
	if walSize(dir2) != 0 {
		t.Fatal("buffered mode wrote through without a flush")
	}
	if err := p2.Sync(); err != nil {
		t.Fatal(err)
	}
	if walSize(dir2) == 0 {
		t.Fatal("Sync did not push the buffered record to disk")
	}
	p2.Close()
}

// TestBackgroundCheckpointer: the commit-count trigger fires the async
// checkpointer, which truncates the log so a reopen replays only the tail.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointBytes: -1, CheckpointCommits: 10, SegmentBytes: 512}
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl := xrand.New(17)
	var pop []ids.ID
	for step := 1; step <= 40; step++ {
		pop = randomGraphStep(t, p.Store, rl, pop, step)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never fired: %+v (err %v)", p.Stats(), p.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	clock := p.LastCommit()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS == 0 || info.Clock != clock {
		t.Fatalf("background checkpoint not used at recovery: %+v", info)
	}
	if info.Replayed >= int(clock) {
		t.Fatalf("recovery replayed the whole log despite a checkpoint: %+v", info)
	}
}

// TestCheckpointConcurrentWithCommits races manual checkpoints against a
// commit burst (the no-stop-the-world property, exercised under -race via
// make race) and verifies a final recovery sees every commit.
func TestCheckpointConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := p.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rl := xrand.New(23)
	var pop []ids.ID
	for step := 1; step <= 60; step++ {
		pop = randomGraphStep(t, p.Store, rl, pop, step)
	}
	<-done
	clock := p.LastCommit()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, info := reopen(t, dir, manualOpts())
	if info.Clock != clock {
		t.Fatalf("recovered clock %d, want %d (%+v)", info.Clock, clock, info)
	}
	re.View(func(tx *Txn) {
		for _, id := range pop {
			if !tx.Exists(id) {
				t.Fatalf("node %v lost across concurrent checkpointing", id)
			}
		}
	})
}

// TestCheckpointEmptyAndIdempotent: checkpointing an empty store is a
// no-op, and re-checkpointing without new commits writes nothing new.
func TestCheckpointEmptyAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Checkpoints != 0 {
		t.Fatalf("empty checkpoint was written: %+v", st)
	}
	tx := p.Begin()
	tx.CreateNode(personID(1), nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Checkpoints != 1 {
		t.Fatalf("idempotent re-checkpoint wrote again: %+v", st)
	}
}

// TestOpenMissingSegmentPrefix: a checkpoint whose replay tail has been
// manually deleted must fail loudly, not open with silent data loss.
func TestOpenMissingSegmentPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = 256
	opts.KeepSegments = true
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl := xrand.New(29)
	var pop []ids.ID
	for step := 1; step <= 4; step++ {
		pop = randomGraphStep(t, p.Store, rl, pop, step)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for step := 5; step <= 8; step++ {
		pop = randomGraphStep(t, p.Store, rl, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := scanSegments(filepath.Join(dir, "wal"))
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d", len(segs))
	}
	// Delete a segment the checkpoint does NOT cover.
	if err := os.Remove(segs[len(segs)-2].path); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, manualOpts(), nil)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing tail segment not detected: %v", err)
	}
}
