package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// update-wal: writes without reads. The store is opened on a data directory
// (walOptions), bulk-loaded through the WAL, and two writer clients replay
// the update stream as fast as its dependencies allow. Commit validation and
// install, redo serialisation, group-commit batching, WAL writes, rotation
// and background checkpoints do all the work and the read path none: this is
// the control for read-side changes and the workload for commit-pipeline
// changes. The flush policy acknowledges a commit before it is fsynced, so
// the op is a logged commit, not a durable one (README.md, "Flush policy").

// walRate is acknowledged commits per second on the reference box. The op
// supply is the dataset's own update stream (the last 4 of 36 simulated
// months, 113 updates per person), so at 1000 persons a round's list is cut
// to that stream, about one second of work, whenever -seconds asks for more
// than 5.
const walRate = 115000

type walRunner struct {
	ds   *dataset
	seed uint64
	n    int // list entries; a tail of n/10 more updates follows for the crash image

	mu    sync.Mutex
	acked []*schema.Update // guarded by mu; every acknowledged update, in ack order

	// loaded is the commit clock after the bulk load; unwritten is that
	// clock minus the records the group-commit batcher reports as written
	// to the OS, read when nothing is pending: what the clock is ahead of
	// the log by for good (0 on a fresh store).
	loaded, unwritten int64

	stats0 store.PersistStats
	acked0 int
}

func prepareWAL(ds *dataset, cfg *config, n int) (runner, error) {
	if most := len(ds.updates) * 10 / 11; n > most {
		fmt.Fprintf(os.Stderr, "update-wal: op list cut from %d to %d commits, the update stream's length\n", n, most)
		n = most
	}
	return &walRunner{ds: ds, seed: cfg.seed, n: n, acked: make([]*schema.Update, 0, n+n/10)}, nil
}

func (r *walRunner) entries() int { return r.n }

func (r *walRunner) capacity(n int) (samples, spans int) { return n, n }

// verify: there is no second read path for a write. What can be checked
// before timing is that the bulk load went through the WAL this workload
// measures, i.e. the store is the one on disk and its log is not empty. The
// flush barrier empties the batcher so that clock and log can be lined up;
// it is the only one the harness issues.
func (r *walRunner) verify() error {
	if r.ds.persist == nil {
		return errors.New("update-wal needs a store opened on a data directory")
	}
	if err := r.ds.store.FlushWAL(); err != nil {
		return fmt.Errorf("flush the bulk load: %w", err)
	}
	st := r.ds.persist.Stats()
	if st.WALBytes == 0 {
		return fmt.Errorf("bulk load left no trace in the WAL: %+v", st)
	}
	r.loaded = r.ds.store.LastCommit()
	r.unwritten = r.loaded - st.BatchedRecords
	return nil
}

// timedConnector is the driver's connector: it times ApplyUpdate from
// outside and logs each acknowledged update for the durability check.
type timedConnector struct {
	r   *walRunner
	rec *recorder
}

func (c *timedConnector) Execute(op *schema.Update) error {
	t0 := time.Now()
	err := workload.ApplyUpdate(c.r.ds.store, op)
	t1 := time.Now()
	c.rec.outcome(err == nil)
	if err != nil {
		return err
	}
	c.rec.tr.add(spApplyUpdate, -1, int64(op.Type), t0, t1)
	c.rec.sample(t1.Sub(t0))
	c.r.mu.Lock()
	c.r.acked = append(c.r.acked, op)
	c.r.mu.Unlock()
	return nil
}

func (r *walRunner) run(lo, hi int, rec *recorder) {
	// Nothing is in flight between passes over the list, so the counters
	// read here are those of acknowledged commits only.
	r.stats0 = r.ds.persist.Stats()
	r.acked0 = len(r.acked)
	r.replay(lo, hi, rec)
}

func (r *walRunner) replay(lo, hi int, rec *recorder) {
	streams := driver.Partition(r.ds.updates[lo:hi], clients())
	driver.Run(driver.Config{Connector: &timedConnector{r, rec}, Streams: len(streams), Mode: driver.ModeUnpaced}, streams)
}

// finish takes a process-kill image of the data directory while the
// writers run on (a tail of the update stream, outside the timed section),
// recovers it and requires every commit the store had reported as written
// to the OS when the copy began: the recovered clock covers them and a
// seeded sample of their entities is present. A lost commit is a failed op.
// The harness issues no flush barrier here. Commits acknowledged but still
// with the batcher at that instant are what SyncFlush gives up to a process
// kill by design; they are counted (store.acked_unwritten), not failed.
func (r *walRunner) finish(rec *recorder, m metrics) error {
	st := r.ds.persist.Stats()
	commits := float64(len(r.acked) - r.acked0)
	m["store.fsyncs_per_commit"] = ratio(float64(st.Fsyncs-r.stats0.Fsyncs), commits)
	m["store.recs_per_batch"] = ratio(float64(st.BatchedRecords-r.stats0.BatchedRecords), float64(st.Batches-r.stats0.Batches))
	m["store.wal_bytes_per_commit"] = ratio(float64(st.WALBytes-r.stats0.WALBytes), commits)
	m["store.wal_rotations"] = float64(st.WALRotations - r.stats0.WALRotations)
	m["store.checkpoints"] = float64(st.Checkpoints - r.stats0.Checkpoints)
	m["store.commit_errors"] = float64(rec.failed.Load())

	tail := newRecorder(r.n/10+1, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.replay(r.n, r.n+r.n/10, tail)
	}()
	// The image is of a store under load: wait until the writers are a
	// tenth into the tail. Sleeping, because spinning would take a core from
	// the writers and the flusher.
	under := r.ds.store.LastCommit() + int64(r.n/100)
wait:
	for r.ds.store.LastCommit() < under {
		select {
		case <-done:
			break wait
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Written first, clock second: the difference is never less than the
	// truth.
	written := r.ds.persist.Stats().BatchedRecords + r.unwritten
	clock := r.ds.store.LastCommit()
	image := filepath.Join(r.ds.dir, "image")
	err := copyLive(filepath.Join(r.ds.dir, "live"), image)
	<-done
	if err != nil {
		return fmt.Errorf("copy the data directory: %w", err)
	}
	if f := tail.failed.Load(); f > 0 {
		rec.failed.Add(f)
		rec.attempted.Add(f)
	}
	m["store.acked_unwritten"] = max(m["store.acked_unwritten"], float64(clock-written)) // the rounds' largest

	opts := walOptions
	opts.CheckpointCommits = 0
	t0 := time.Now()
	p, info, err := store.Open(image, opts, schema.RegisterIndexes)
	if err != nil {
		return fmt.Errorf("recover the crash image: %w", err)
	}
	defer p.Close()
	m["store.recover_ms"] = msOf(int64(time.Since(t0)))
	m["store.recover_replayed"] = float64(info.Replayed)
	m["store.recover_torn_bytes"] = float64(info.TornBytes)
	fmt.Fprintf(os.Stderr, "update-wal: crash image: clock %d, %d written, recovered to %d in %.0f ms\n",
		clock, written, info.Clock, m["store.recover_ms"])

	lost := 0
	if info.Clock < written {
		lost = int(written - info.Clock)
		fmt.Fprintf(os.Stderr, "update-wal: recovered clock %d, written before the copy %d\n", info.Clock, written)
	}
	// The acknowledgement log follows the commit order to within the commits
	// in flight, one per writer, so its first entries up to that margin below
	// the written clock are written commits.
	v, _ := p.Store.AcquireView()
	pick := xrand.New(r.seed, purposeSample)
	missing := 0
	if sure := int(written-r.loaded) - clients(); sure > 0 {
		for k := 0; k < 512; k++ {
			if u := r.acked[pick.Intn(sure)]; !present(v, u) {
				missing++
			}
		}
	}
	if missing > lost {
		lost = missing
	}
	if lost > 0 {
		fmt.Fprintf(os.Stderr, "update-wal: %d commits written before the copy are missing from the recovered image\n", lost)
		rec.failed.Add(int64(lost))
	}
	if err := r.ds.persist.Err(); err != nil {
		return fmt.Errorf("background checkpoint: %w", err)
	}
	return nil
}

func (r *walRunner) layers(tr *tracer, m metrics) {
	commits := tr.durations(spApplyUpdate, nil)
	m["store.commit_p50_us"] = usOf(quantile(commits, 0.50))
	m["store.commit_p99_us"] = usOf(quantile(commits, 0.99))
	m["store.commit_p999_us"] = usOf(quantile(commits, 0.999))
}

func (r *walRunner) close() {}

// copyLive copies a data directory that is being written: checkpoints
// first, then WAL segments in ascending order, so the copy holds a
// checkpoint and every segment above it. A file the checkpointer removes
// under the copy makes the set inconsistent, so the copy starts over.
func copyLive(src, dst string) error {
	for attempt := 0; ; attempt++ {
		err := copyTree(src, dst)
		if err == nil || !errors.Is(err, fs.ErrNotExist) || attempt == 8 {
			return err
		}
	}
}

func copyTree(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	for _, sub := range []string{"", "wal"} {
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			return err
		}
		ents, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			return err
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
		for _, e := range ents {
			if e.IsDir() || filepath.Ext(e.Name()) == ".tmp" {
				continue
			}
			if err := copyFile(filepath.Join(src, sub, e.Name()), filepath.Join(dst, sub, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
