package bench

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// BenchmarkRecovery measures what the checkpoint subsystem buys at restart
// time: recovering the 250-person environment (bulk load plus ~95% of the
// update stream folded into a checkpoint, the last ~5% left as the WAL
// tail) via checkpoint + tail replay, against full WAL replay of the same
// history from the first commit. `make bench-recovery` converts the output
// into BENCH_recovery.json; the acceptance bar is checkpoint + tail >= 3x
// faster than full replay at this scale (the decode-then-apply recovery
// rewrite sped up full replay itself ~2x, narrowing the ratio while
// making both paths faster).
//
// The two directories are built once per process, each by one durable run
// with KeepSegments (truncation disabled, so the full log survives the
// checkpoints). The checkpoint run bulk-loads as the program does, which
// leaves the bulk image as a checkpoint. The full-replay run writes the
// same graph by commits alone, the bulk split in 2000-entity transactions,
// and takes no checkpoint: recovery has nothing to load and must replay
// every record.

const recoveryPersons = 250

var recoveryDirs struct {
	once             sync.Once
	ckptDir, fullDir string
	tailFrac         float64
	err              error
}

func setupRecoveryDirs(b *testing.B) (ckptDir, fullDir string) {
	b.Helper()
	recoveryDirs.once.Do(func() {
		base, err := os.MkdirTemp("", "ldbcsnb-recovery-")
		if err != nil {
			recoveryDirs.err = err
			return
		}
		ckptDir = filepath.Join(base, "ckpt")
		opts := store.PersistOptions{CheckpointBytes: -1, KeepSegments: true}
		p, _, err := store.Open(ckptDir, opts, nil)
		if err != nil {
			recoveryDirs.err = err
			return
		}
		env := NewEnvData(recoveryPersons, 42)
		if err := env.LoadInto(p.Store); err != nil {
			recoveryDirs.err = err
			return
		}
		conn := &driver.StoreConnector{Store: p.Store}
		// The crash lands 2% of the history after the last checkpoint —
		// the steady state of a checkpointer triggered every few hundred
		// commits (or few MiB of WAL), which is what bounded recovery is
		// for. The ratio degrades linearly as the tail grows; at a 100%
		// tail the two paths coincide by construction.
		cut := len(env.Updates) * 98 / 100
		for i := 0; i < cut; i++ {
			if err := conn.Execute(&env.Updates[i]); err != nil {
				recoveryDirs.err = err
				return
			}
		}
		if err := p.Checkpoint(); err != nil {
			recoveryDirs.err = err
			return
		}
		for i := cut; i < len(env.Updates); i++ {
			if err := conn.Execute(&env.Updates[i]); err != nil {
				recoveryDirs.err = err
				return
			}
		}
		clock := p.LastCommit()
		if err := p.Close(); err != nil {
			recoveryDirs.err = err
			return
		}
		recoveryDirs.tailFrac = float64(clock-p.CheckpointTS()) / float64(clock)

		fullDir = filepath.Join(base, "full")
		q, _, err := store.Open(fullDir, opts, nil)
		if err != nil {
			recoveryDirs.err = err
			return
		}
		conn = &driver.StoreConnector{Store: q.Store}
		err = errors.Join(schema.LoadDimensions(q.Store), loadByCommits(q.Store, env.Bulk))
		for i := 0; err == nil && i < len(env.Updates); i++ {
			err = conn.Execute(&env.Updates[i])
		}
		if err := errors.Join(err, q.Close()); err != nil {
			recoveryDirs.err = err
			return
		}
		recoveryDirs.ckptDir, recoveryDirs.fullDir = ckptDir, fullDir
	})
	if recoveryDirs.err != nil {
		b.Fatal(recoveryDirs.err)
	}
	return recoveryDirs.ckptDir, recoveryDirs.fullDir
}

// loadByCommits writes a bulk split through Txn commits of 2000 entities
// each, in the order schema.Parts writes it.
func loadByCommits(st *store.Store, d *schema.Dataset) error {
	tx, n := st.Begin(), 0
	next := func(err error) error {
		if err != nil {
			return err
		}
		if n++; n%2000 == 0 {
			err, tx = tx.Commit(), st.Begin()
		}
		return err
	}
	var err error
	for i := 0; err == nil && i < len(d.Persons); i++ {
		err = next(schema.AddPerson(tx, &d.Persons[i]))
	}
	for i := 0; err == nil && i < len(d.Knows); i++ {
		err = next(tx.AddKnows(d.Knows[i].A, d.Knows[i].B, d.Knows[i].CreationDate))
	}
	for i := 0; err == nil && i < len(d.Forums); i++ {
		err = next(schema.AddForum(tx, &d.Forums[i]))
	}
	for i := 0; err == nil && i < len(d.Memberships); i++ {
		m := &d.Memberships[i]
		err = next(tx.AddEdge(m.Forum, store.EdgeHasMember, m.Person, m.JoinDate))
	}
	for i := 0; err == nil && i < len(d.Posts); i++ {
		err = next(schema.AddPost(tx, &d.Posts[i]))
	}
	for i := 0; err == nil && i < len(d.Comments); i++ {
		err = next(schema.AddComment(tx, &d.Comments[i]))
	}
	for i := 0; err == nil && i < len(d.Likes); i++ {
		l := &d.Likes[i]
		err = next(tx.AddEdge(l.Person, store.EdgeLikes, l.Message, l.CreationDate))
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func benchRecover(b *testing.B, dir string, wantCheckpoint bool) {
	b.Helper()
	var clock int64
	for i := 0; i < b.N; i++ {
		// A real recovery starts in a fresh process; collect the previous
		// iteration's store outside the timed region so one iteration's
		// garbage doesn't bill the next one's GC cycles.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		p, info, err := store.Open(dir, store.PersistOptions{CheckpointBytes: -1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if wantCheckpoint && info.CheckpointTS == 0 {
			b.Fatalf("checkpoint not used: %+v", info)
		}
		if !wantCheckpoint && info.CheckpointTS != 0 {
			b.Fatalf("full replay benchmark loaded a checkpoint: %+v", info)
		}
		if clock == 0 {
			clock = info.Clock
		} else if info.Clock != clock {
			b.Fatalf("recovery not deterministic: clock %d then %d", clock, info.Clock)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clock), "commits")
}

func BenchmarkRecovery(b *testing.B) {
	ckptDir, fullDir := setupRecoveryDirs(b)
	b.Run("checkpoint+tail", func(b *testing.B) {
		benchRecover(b, ckptDir, true)
	})
	b.Run("fullreplay", func(b *testing.B) {
		benchRecover(b, fullDir, false)
	})
}
