package store

import (
	"sync"
	"sync/atomic"

	"ldbcsnb/internal/ids"
)

const shardCount = 64

// shard holds a partition of the node map. The shard lock guards the map
// and the adjacency of every nodeRec it owns (the row table and its lists).
type shard struct {
	mu    sync.RWMutex
	nodes map[ids.ID]*nodeRec // guarded by mu
}

// Store is the graph database. Construct with New; a Store must not be
// copied after first use.
type Store struct {
	shards [shardCount]shard

	// commitMu serialises the commit protocol: validation, installation,
	// the append to the commit log and watermark advance happen atomically
	// with respect to other commits. Readers take it once per inline
	// rebuild, to register the view's cursor in the log at the clock.
	commitMu sync.Mutex
	// clock is the last fully committed timestamp; snapshots read it.
	clock atomic.Int64
	// log holds the write sets its consumers have yet to read (commitlog.go).
	log commitLog

	kindMu sync.RWMutex
	byKind map[ids.Kind][]ids.ID // guarded by kindMu

	commits atomic.Int64
	aborts  atomic.Int64

	// view caches the frozen snapshot at the current clock (see
	// CurrentView); viewMu serialises maintenance (delta refreshes and
	// inline rebuilds), never reads.
	view    atomic.Pointer[SnapshotView]
	viewMu  sync.Mutex
	rowWork rowWork // guarded by viewMu; the refresh scratch

	compactThreshold atomic.Int64 // explicit compaction trigger, or autoCompactThreshold

	viewRefreshes atomic.Int64
	viewRebuilds  atomic.Int64
	viewEraBumps  atomic.Int64

	// gwal, set by Open, writes the commit log's records to the segmented
	// log in commit order: the group-commit flusher (groupcommit.go). Nil
	// on a store that is not durable.
	gwal *groupWAL
	// durable, set by Open, is the handle whose checkpoint makes a bulk
	// load durable (Store.Load). Nil on a store that is not durable.
	durable *Persistent

	// closed is raised by MarkClosed (Persistent.Close does it before the
	// WAL drains). Commits and checked view acquisition observe it and
	// return ErrStoreClosed instead of racing the shutdown.
	closed atomic.Bool
}

// New returns an empty store. The store is unpublished until New returns,
// so shard initialisation needs no locks.
//
//snb:locked mu
func New() *Store {
	s := &Store{
		byKind: make(map[ids.Kind][]ids.ID),
		log:    commitLog{view: noCursor, written: noCursor},
	}
	s.compactThreshold.Store(autoCompactThreshold)
	for i := range s.shards {
		s.shards[i].nodes = make(map[ids.ID]*nodeRec)
	}
	return s
}

// shardIndex maps a node ID to its owning shard slot; every placement and
// lookup (including buildView's shard grouping) must go through it.
func shardIndex(id ids.ID) int {
	return int(uint64(id) % shardCount)
}

func (s *Store) shardFor(id ids.ID) *shard {
	return &s.shards[shardIndex(id)]
}

// Commits returns the number of committed transactions.
func (s *Store) Commits() int64 { return s.commits.Load() }

// Aborts returns the number of aborted transactions (conflicts + explicit).
func (s *Store) Aborts() int64 { return s.aborts.Load() }

// LastCommit returns the current snapshot watermark.
func (s *Store) LastCommit() int64 { return s.clock.Load() }

// MarkClosed transitions the store into the closed state: every later
// Commit and AcquireViewChecked returns ErrStoreClosed. Taking commitMu to
// flip the flag is the shutdown fence — commits already inside their
// critical section finish (and reach the WAL) before MarkClosed returns,
// and commits that arrive after it observe the flag before appending.
// Persistent.Close calls this before draining the WAL; servers over an
// in-memory store call it directly. Views stay acquirable: a view is
// maintained by the readers that acquire it, on their own goroutines.
// Idempotent.
func (s *Store) MarkClosed() {
	s.commitMu.Lock()
	s.closed.Store(true)
	s.commitMu.Unlock()
}

// Closed reports whether MarkClosed (or Persistent.Close) has run.
func (s *Store) Closed() bool { return s.closed.Load() }

// Begin starts a read-write transaction at the current snapshot.
func (s *Store) Begin() *Txn {
	return &Txn{s: s, snapshot: s.clock.Load()}
}

// View runs fn in a read-only transaction. Read-only transactions never
// conflict and need no commit.
func (s *Store) View(fn func(*Txn)) {
	tx := s.Begin()
	tx.readonly = true
	fn(tx)
}

// nodesOfKind returns the IDs of all nodes of a kind visible at snapshot
// ts, in insertion order. The per-kind list is append-only and in commit
// order, so the entries committed after ts form a suffix: the scan walks
// back from the tail and stops at the first visible entry, touching only
// the invisible suffix rather than the whole list. The result shares the
// store's array, capped at its length: the store appends beyond it, and an
// append by the caller reallocates instead of writing into the store's
// array. It must not be written.
func (s *Store) nodesOfKind(kind ids.Kind, ts int64) []ids.ID {
	s.kindMu.RLock()
	list := s.byKind[kind]
	s.kindMu.RUnlock()

	n := len(list)
	for n > 0 && !s.visibleAt(list[n-1], ts) {
		n--
	}
	return list[:n:n]
}

// visibleAt reports whether a stored node is visible at ts.
func (s *Store) visibleAt(id ids.ID, ts int64) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec := sh.nodes[id]
	return rec != nil && rec.commit <= ts
}
