package store

// MVCC garbage collection. Property updates append node versions (SetProp)
// and edge deletions leave tombstones (DeleteEdge); long runs against a
// mutating workload must be able to reclaim what no active snapshot can
// see.
//
// # The horizon and retained snapshot views
//
// GC's contract is purely timestamp-based: after GC(horizon), any read at a
// snapshot >= horizon is unaffected. The caller chooses the horizon; the
// conservative choice is the minimum over (a) the snapshot of the oldest
// still-running transaction (Txn.Snapshot) and (b) the oldest timestamp it
// will still pass to ViewAt.
//
// Retained SnapshotViews need no accounting: a view is fully materialised
// at construction (CSR slabs, property tables, copy-on-write overlays) and
// never reads the store again, so views frozen below the horizon stay
// correct after GC. The same holds for the delta refresh path — pending
// CommitDeltas carry the committed property lists and edge descriptors
// themselves, not references into version chains — so CurrentView's
// incremental maintenance is GC-safe at any horizon. The background
// compaction of the cached view (delta.go) does read the store, at the
// timestamp of the refresh that started it; GC records its horizon first,
// and a compaction that started below a recorded horizon discards what it
// built instead of swapping it in (the next refresh starts another). Only
// ViewAt (and Begin) at a timestamp below the horizon can observe reclaimed
// state, which is why the horizon must cover them.
//
// # The horizon and durability
//
// Checkpoints (checkpoint.go) need no coordination with GC for the same
// reason views do not: the checkpointer serialises an already-materialised
// SnapshotView, never the live version chains, so GC running concurrently
// with a checkpoint cannot tear it. In the other direction, the durable
// side never constrains the horizon upward — recovery replays WAL records
// through the normal commit path against state at least as new as the
// newest checkpoint, so Persistent.CheckpointTS is always a safe component
// of the horizon: GC at or below it can never reclaim anything a restart
// still needs. Restoring a checkpoint is itself equivalent to a GC at the
// checkpoint's clock — history below it is flattened into single-version
// records (see checkpoint.go, "What restoring flattens").

// GC prunes MVCC debris invisible to every snapshot taken at or after
// horizon:
//
//   - node property versions: for each node, the newest version with
//     commit <= horizon is kept (it is what such snapshots read) and all
//     older versions are dropped;
//   - edge tombstones: adjacency entries whose deletion committed at or
//     before the horizon (del <= horizon) are invisible to every snapshot
//     >= horizon and are physically removed, preserving the insertion
//     order of the surviving entries.
//
// It returns the total number of reclaimed versions and edge records.
func (s *Store) GC(horizon int64) int {
	// A background view compaction reads the store at the timestamp it
	// started from; one that started below the horizon discards its result.
	s.viewMu.Lock()
	s.gcHorizon = max(s.gcHorizon, horizon)
	s.viewMu.Unlock()

	reclaimed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.nodes {
			reclaimed += gcVersions(rec, horizon)
			for j := range rec.adj.rows {
				reclaimed += gcEdges(&rec.adj.rows[j].list, horizon)
			}
		}
		sh.mu.Unlock()
	}
	return reclaimed
}

// gcVersions drops property versions superseded at the horizon.
func gcVersions(rec *nodeRec, horizon int64) int {
	if len(rec.versions) < 2 {
		return 0
	}
	// Find the newest version visible at the horizon.
	keep := 0
	for j := len(rec.versions) - 1; j >= 0; j-- {
		if rec.versions[j].commit <= horizon {
			keep = j
			break
		}
	}
	if keep == 0 {
		return 0
	}
	rec.versions = append(rec.versions[:0:0], rec.versions[keep:]...)
	return keep
}

// gcEdges removes tombstoned entries dead at the horizon from one
// adjacency list, in place (the caller holds the shard's write lock; no
// concurrent reader aliases the backing array — views copy at build time).
func gcEdges(list *[]edgeRec, horizon int64) int {
	l := *list
	n := 0
	for i := range l {
		if l[i].del != 0 && l[i].del <= horizon {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	out := l[:0]
	for i := range l {
		if !(l[i].del != 0 && l[i].del <= horizon) {
			out = append(out, l[i])
		}
	}
	*list = out
	return n
}

// VersionCount reports the total number of stored node versions
// (diagnostic; used by GC tests and capacity planning).
func (s *Store) VersionCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.nodes {
			n += len(rec.versions)
		}
		sh.mu.RUnlock()
	}
	return n
}

// TombstoneCount reports the number of tombstoned adjacency entries not
// yet reclaimed (diagnostic for GC tests and capacity planning).
func (s *Store) TombstoneCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.nodes {
			for _, r := range rec.adj.rows {
				for j := range r.list {
					if r.list[j].del != 0 {
						n++
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
