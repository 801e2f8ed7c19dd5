package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Group-commit tests: crash injection at the group-commit boundaries (batch
// written but not fsynced, torn record mid-batch, a record missing from the
// middle of the log), fsync-on-commit durability without a clean shutdown,
// and concurrent-writer stress for the race detector.

// commitPersonErr commits one transaction creating person n (commit
// timestamp n when commits are sequential).
func commitPersonErr(s *Store, n int) error {
	tx := s.Begin()
	if err := tx.CreateNode(personID(uint32(n)), Props{
		NewProp(PropFirstName, String([]string{"ada", "bob", "eve"}[n%3])),
		NewProp(PropCreationDate, Int64(int64(n))),
	}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func commitPerson(t *testing.T, s *Store, n int) {
	t.Helper()
	if err := commitPersonErr(s, n); err != nil {
		t.Fatal(err)
	}
}

type segRec struct {
	off int64 // record's byte offset in the file
	ts  int64
}

// readSegRecords lists one segment file's records (offset, commit ts).
func readSegRecords(t *testing.T, path string) []segRec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []segRec
	off := int64(segHeaderSize)
	for off+8 <= int64(len(data)) {
		end := off + 8 + int64(binary.LittleEndian.Uint32(data[off:]))
		if end > int64(len(data)) {
			break
		}
		out = append(out, segRec{off: off, ts: int64(binary.LittleEndian.Uint64(data[off+8:]))})
		off = end
	}
	return out
}

func truncAt(t *testing.T, path string, off int64) {
	t.Helper()
	if err := os.Truncate(path, off); err != nil {
		t.Fatal(err)
	}
}

// assertPersonPrefix asserts persons 1..k exist and k+1..n do not.
func assertPersonPrefix(t *testing.T, s *Store, k, n int) {
	t.Helper()
	s.View(func(tx *Txn) {
		for i := 1; i <= n; i++ {
			want := i <= k
			if got := tx.Exists(personID(uint32(i))); got != want {
				t.Fatalf("person %d: exists=%v want %v (clock %d)", i, got, want, s.LastCommit())
			}
		}
	})
}

// crashFixture commits n sequential single-person transactions (commit
// timestamps 1..n, all in one segment) and returns a crash image of the
// closed directory plus the path of its segment.
func crashFixture(t *testing.T, n int) (crash, seg string) {
	t.Helper()
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		commitPerson(t, p.Store, i)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	crash = filepath.Join(t.TempDir(), "crash")
	copyDir(t, dir, crash)
	return crash, lastSegment(t, crash)
}

// TestCrashLaneBatchWrittenNotSynced: the log's whole tail batch vanishes
// (the crash landed between the batch write and its fsync, and the OS never
// flushed the pages). Recovery keeps the prefix that reached the disk, and
// the prefix is a fully working store.
func TestCrashLaneBatchWrittenNotSynced(t *testing.T) {
	const n, kept = 9, 4
	crash, seg := crashFixture(t, n)
	truncAt(t, seg, readSegRecords(t, seg)[kept].off) // the batch holding ts 5..9 is gone
	re, info := reopen(t, crash, manualOpts())
	if info.Clock != kept || info.Replayed != kept || info.TornBytes != 0 {
		t.Fatalf("want clock %d off a clean cut, got %+v", kept, info)
	}
	assertPersonPrefix(t, re.Store, kept, n)

	commitPerson(t, re.Store, kept+1)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, info2 := reopen(t, crash, manualOpts())
	if info2.Clock != kept+1 {
		t.Fatalf("want clock %d after recommit, got %+v", kept+1, info2)
	}
	assertPersonPrefix(t, re2.Store, kept+1, n)
}

// TestCrashTornRecordMidBatch: the last record of the final batch is torn
// (partial write). The clean prefix ends there.
func TestCrashTornRecordMidBatch(t *testing.T) {
	const n = 9
	crash, seg := crashFixture(t, n)
	recs := readSegRecords(t, seg)
	truncAt(t, seg, recs[len(recs)-1].off+5) // tear ts 9 mid-record
	re, info := reopen(t, crash, manualOpts())
	if info.Clock != n-1 || info.TornBytes != 5 {
		t.Fatalf("want clock %d with a 5-byte torn tail, got %+v", n-1, info)
	}
	assertPersonPrefix(t, re.Store, n-1, n)
}

// TestCrashMissingRecordSameLane: commit timestamps are consecutive and
// tears only eat a suffix, so a hole in the sequence cannot be a crash
// artifact — recovery must refuse with ErrCorrupt naming the segment rather
// than silently truncate acknowledged commits.
func TestCrashMissingRecordSameLane(t *testing.T) {
	crash, seg := crashFixture(t, 9)
	recs := readSegRecords(t, seg)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Splice record ts 4 out of the middle of the log.
	spliced := append([]byte(nil), data[:recs[3].off]...)
	spliced = append(spliced, data[recs[4].off:]...)
	if err := os.WriteFile(seg, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(crash, manualOpts(), nil)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(seg)) {
		t.Fatalf("want ErrCorrupt naming %s for a hole at ts 4, got %v", filepath.Base(seg), err)
	}
}

// TestOpenRejectsMultiLane: the log has one lane. A directory holding a
// lane-qualified segment would replay with that lane's commits missing, so
// Open refuses it — before touching any file — and refuses a request for
// more than one lane the same way; WALLanes 0 and 1 both mean the log.
func TestOpenRejectsMultiLane(t *testing.T) {
	crash, _ := crashFixture(t, 3)
	for _, lanes := range []int{0, 1} {
		opts := manualOpts()
		opts.WALLanes = lanes
		re, info := reopen(t, crash, opts)
		if info.Clock != 3 || info.Replayed != 3 {
			t.Fatalf("WALLanes=%d: want 3 commits replayed, got %+v", lanes, info)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	opts := manualOpts()
	opts.WALLanes = 2
	if _, _, err := Open(crash, opts, nil); !errors.Is(err, ErrMultiLaneWAL) {
		t.Fatalf("WALLanes=2: want ErrMultiLaneWAL, got %v", err)
	}

	// A stale checkpoint temp and a torn tail are what Open cleans up first;
	// both must survive the refusal.
	stray := filepath.Join(crash, "wal", "wal-1-000001.seg")
	tmp := filepath.Join(crash, ckptPrefix+"7"+ckptTmpSuffix)
	seg := lastSegment(t, crash)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, 1, 2, 3)
	for path, content := range map[string][]byte{stray: []byte("lane 1"), tmp: []byte("tmp"), seg: torn} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = Open(crash, manualOpts(), nil)
	if !errors.Is(err, ErrMultiLaneWAL) || !strings.Contains(err.Error(), filepath.Base(stray)) {
		t.Fatalf("want ErrMultiLaneWAL naming %s, got %v", filepath.Base(stray), err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("refused Open removed the checkpoint temp: %v", err)
	}
	if after, err := os.ReadFile(seg); err != nil || len(after) != len(torn) {
		t.Fatalf("refused Open truncated the segment: %d bytes, want %d (%v)", len(after), len(torn), err)
	}
}

// TestSyncCommitDurableWithoutClose: in fsync-on-commit mode every
// returned Commit must survive a crash with NO shutdown cooperation — the
// crash image is copied while the store is still open, without Sync or
// Close. Concurrent writers shared batches, so fsyncs stay well below one
// per commit.
func TestSyncCommitDurableWithoutClose(t *testing.T) {
	const writers, commits = 4, 32
	dir := t.TempDir()
	opts := manualOpts()
	opts.WALSync = SyncCommit
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctr atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, commits)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(ctr.Add(1))
				if i > commits {
					return
				}
				if err := commitPersonErr(p.Store, i); err != nil {
					errs <- fmt.Errorf("commit %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	crash := filepath.Join(t.TempDir(), "crash")
	copyDir(t, dir, crash)
	re, info := reopen(t, crash, opts)
	if info.Clock != commits {
		t.Fatalf("lost acknowledged commits: recovered clock %d want %d (%+v)", info.Clock, commits, info)
	}
	assertPersonPrefix(t, re.Store, commits, commits)
	re.Close()

	st := p.Stats()
	if st.Fsyncs == 0 || st.Batches == 0 || st.BatchedRecords != commits {
		t.Fatalf("flusher counters off: %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitConcurrentStress drives many writers over the WAL with
// frequent rotation, racing Stats, Sync, view refreshes and a checkpoint
// against the flusher — primarily race-detector coverage for the commit
// log, whose write sets the flusher and the refreshes read after the
// committers have released commitMu.
func TestGroupCommitConcurrentStress(t *testing.T) {
	const writers, commits = 8, 200
	dir := t.TempDir()
	opts := manualOpts()
	opts.SegmentBytes = 512
	opts.WALSync = SyncFlush
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctr atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, commits)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(ctr.Add(1))
				if i > commits {
					return
				}
				if err := commitPersonErr(p.Store, i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Stats()
				_ = p.Sync()
				_ = p.CurrentView()
			}
		}
	}()
	wg.Wait()
	close(stop)
	obs.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, info := reopen(t, dir, opts)
	defer re.Close()
	if info.Clock != commits {
		t.Fatalf("recovered clock %d want %d (%+v)", info.Clock, commits, info)
	}
	assertPersonPrefix(t, re.Store, commits, commits)
}
