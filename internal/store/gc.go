package store

// MVCC garbage collection. Property updates append node versions (SetProp);
// long runs against a mutating workload must be able to reclaim the versions
// no active snapshot can see. Adjacency entries need no collection: edges are
// insert-only, so every stored entry stays visible from its commit on.
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
// at construction (CSR slabs, the era's commit-stamped overlay, references to the
// immutable property rows of the versions it sees, which GC dropping a
// version does not free while the view holds them) and never reads the
// store again, so views frozen below the horizon stay
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

// GC prunes the node property versions invisible to every snapshot taken at
// or after horizon: for each node, the newest version with commit <= horizon
// is kept (it is what such snapshots read) and all older versions are
// dropped. It returns the number of reclaimed versions.
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
