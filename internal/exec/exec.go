// Package exec is the morsel-driven intra-query parallel scheduler of the
// BI read path. The SNB Business Intelligence workload (§1 of the paper)
// is graph-wide aggregation: full fact-table scans grouped by time,
// geography and tag dimensions, which stress scan and join throughput
// rather than point-lookup latency. Every BI query takes a Config and cuts
// its scan with Scan; one worker runs the scan inline, which is what the
// transactional path needs.
//
// Workers read a snapshot view that is not frozen in memory: a held view
// shares its era's overlay with every newer view of the era, and the era's
// single writer appends to it in place while the workers scan. They stay
// correct without locks because every read indexes only below the length
// of a header published by an atomic store, and keeps only the appended
// entries stamped at or before the view's own timestamp (store/delta.go,
// "Append-sharing");
// internal/bi's TestBIParallelOnHeldViewUnderRefresh runs the queries on
// four workers over a held view while the writer appends.
//
// The scheduler follows the morsel-driven model: the dense scan range
// [0, n) is cut into fixed-size morsels which workers claim dynamically
// from a shared atomic cursor. Dynamic claiming (rather than static
// striping) keeps all workers busy when per-row cost is skewed — one
// worker stuck on a hub node's adjacency doesn't leave the others idle
// with pre-assigned ranges they already finished. A morsel size of 1
// fans out short task lists of uneven cost, like BI7's per-forum reach.
//
// Aggregation state is owned per worker: the body callback receives the
// claiming worker's index, and callers keep one partial aggregate (map,
// top-k heap, histogram, scratch) per worker, merging the partials in a
// final serial reduce once Scan returns. No locks, no channels, no false
// sharing on the hot path.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselSize is the per-claim scan range when Config.MorselSize is
// unset. Big enough that the atomic claim is noise against the per-row
// work, small enough that skewed rows don't unbalance the tail of a scan.
const DefaultMorselSize = 1024

// Config parameterises morsel execution. The zero value is a sensible
// default: GOMAXPROCS workers, DefaultMorselSize rows per claim.
type Config struct {
	// Workers is the fan-out; 0 or negative means GOMAXPROCS. Workers=1
	// runs every body call inline on the caller's goroutine.
	Workers int
	// MorselSize is the rows-per-claim granularity of Scan; 0 or negative
	// means DefaultMorselSize.
	MorselSize int
}

// NumWorkers resolves the configured fan-out. Callers size their
// per-worker partial-aggregate slices with it; body callbacks receive
// worker indices in [0, NumWorkers()).
func (c Config) NumWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) morselSize() int {
	if c.MorselSize > 0 {
		return c.MorselSize
	}
	return DefaultMorselSize
}

// Scan executes body over the dense range [0, n), cut into fixed-size
// morsels claimed dynamically by the configured workers. Each call
// receives the claiming worker's index and one half-open morsel [lo, hi);
// every index in [0, n) is covered exactly once. Scan returns when the
// whole range is processed.
//
// body runs concurrently on up to NumWorkers goroutines: it must only
// write state owned by its worker index. Ranges that fit in a single
// morsel (and Workers=1 configs) run inline on the caller's goroutine.
func (c Config) Scan(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers, morsel := c.NumWorkers(), c.morselSize()
	if workers == 1 || n <= morsel {
		body(0, 0, n)
		return
	}
	// Never park more workers than there are morsels to claim.
	if morsels := (n + morsel - 1) / morsel; workers > morsels {
		workers = morsels
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(morsel)))
				lo := hi - morsel
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				body(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
