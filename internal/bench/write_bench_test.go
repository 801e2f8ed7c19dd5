package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// BenchmarkWrite measures durable commit throughput under the group-commit
// pipeline: N concurrent writers issue minimal single-node insert
// transactions against a fresh durable store, across the three WAL
// durability modes and writer counts 1/2/4/8. In fsync-on-commit mode the
// interesting metrics are fsyncs/commit (how well the batcher amortises
// the fsync across concurrent committers; the acceptance bar at 8 writers
// is < 0.3) and recs/batch (mean batch size). `make bench-write` converts
// the output into BENCH_write.json.

// writeBucket keeps benchmark entity IDs far above generated datasets'
// minute buckets (the directory is fresh per sub-benchmark, so collisions
// are impossible anyway; the floor just keeps IDs well-formed at any N).
const writeBucket = 1 << 32

func benchWriters(b *testing.B, mode store.WALSyncMode, writers int) {
	dir := b.TempDir()
	opts := store.PersistOptions{CheckpointBytes: -1, WALSync: mode}
	p, _, err := store.Open(dir, opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	b.ResetTimer()
	var ctr atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := ctr.Add(1)
				if i > int64(b.N) {
					return
				}
				id := ids.Compose(ids.KindPerson, writeBucket+(i>>16), uint32(i&0xffff))
				tx := p.Store.Begin()
				err := tx.CreateNode(id, store.Props{
					store.NewProp(store.PropFirstName, store.String("writer")),
					store.NewProp(store.PropCreationDate, store.Int64(i)),
				})
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}

	st := p.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(st.Fsyncs)/float64(b.N), "fsyncs/commit")
	if st.Batches > 0 {
		b.ReportMetric(float64(st.BatchedRecords)/float64(st.Batches), "recs/batch")
	}
}

func BenchmarkWrite(b *testing.B) {
	for _, mode := range []store.WALSyncMode{store.SyncClose, store.SyncFlush, store.SyncCommit} {
		for _, writers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("sync=%s/writers=%d", mode, writers), func(b *testing.B) {
				benchWriters(b, mode, writers)
			})
		}
	}
}
