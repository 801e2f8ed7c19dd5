// Package workload implements the SNB Interactive workload: the 14 complex
// read-only queries (Q1-Q14, Appendix of the paper), the 7 simple read-only
// queries (S1-S7, the profile/post views of §4), and the 8 transactional
// updates (U1-U8), all executed against the property-graph store.
//
// # The unified Reader contract
//
// Every read-only query has exactly one implementation, generic over
// store.Reader:
//
//	func Q9[R store.Reader](r R, sc *Scratch, start ids.ID, maxDate int64) []MessageRow
//
// The same code therefore serves both read paths. Instantiated with
// *store.Txn it is the transactional formulation (MVCC filtering, visited
// sets keyed by node ID in a KeyTable); instantiated with
// *store.SnapshotView it is the Interactive hot path (lock-free CSR
// subslices, dense ordinal bitsets, no allocation in the adjacency loops).
// Results are identical between the two instantiations at the same
// snapshot timestamp — every result ordering tie-breaks on a unique ID, so
// selection and order are deterministic; the equivalence property tests
// (view_test.go) pin this for all queries and the short-read chain.
//
// The queries are graph-navigation programs (the Sparksee style of §5);
// Query 9 additionally has an explicit join-operator formulation (Q9Join)
// used for the Figure 4 join-type ablation.
//
// # Scratch and aliasing rules
//
// A Scratch carries the reusable traversal state of one executor goroutine:
// a pool of visited sets, two ID buffers, the state of the search Q13 and
// Q14 share, and the keyed counters of the group-by-then-top-k queries.
// Every keyed structure that is not indexed by a view ordinal is a KeyTable
// (keytable.go), the one hashed table of the query layers: the txn-path
// visited sets and distances, Q4/Q6's tag counts, Q7's latest like per
// liker, Q9Join's hash tables, the BI partials and the declarative
// executor's dedup sets and groups. Queries bind the scratch to their reader
// on entry, which resets all scratch state. The aliasing rules:
//
//   - One Scratch serves one goroutine; never share it.
//   - Slices returned by helpers that traverse (TwoHopEnv) alias the
//     scratch's buffers and are valid only until the next query on the same
//     Scratch. Copy them to keep them.
//   - Query results (Q*Row slices) never alias the scratch — they are safe
//     to retain.
//   - On the view path, visited sets and path distances are keyed by the
//     view's node ordinals, so a Scratch must not be shared between queries
//     running against different views concurrently (sequential reuse across
//     views is fine and is the intended pattern).
package workload

import (
	"ldbcsnb/internal/bitset"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Scratch is the reusable per-executor traversal state of the unified query
// path: a pool of visited sets, ID buffers, the path search's state
// (pathBFS) and keyed counters, recycled across queries so the hot loops
// stay allocation-free on the view path once the buffers have warmed up to
// the working-set size. See the package documentation for the aliasing
// rules.
//
// Scratch is era-aware: on the view path its visited-set pool and the path
// search's distance stamps are keyed by the view's node ordinals, which the
// store keeps stable across delta refreshes within one era
// (store.SnapshotView.Era). Rebinding to a refreshed view of the same era
// therefore reuses the warm bitsets and stamps — no reallocation, capacity
// only grows. Rebinding across an era bump (a full recompaction reassigned
// every ordinal) additionally hard-resets the whole pool, including sets the
// next query never re-binds, and clears the stamps. Per-query correctness
// does not depend on this — every set is cleared when handed out, every
// search starts a new stamp generation — the era reset enforces the
// pool-wide contract that no ordinal-keyed state survives a recompaction,
// so future cross-query caches keyed by ordinals inherit a safe boundary.
type Scratch struct {
	v     *store.SnapshotView // non-nil while bound to a frozen view
	era   uint64              // era of the last bound view (0 = none yet)
	sets  []*seenSet          // visited-set pool, recycled across queries
	used  int                 // sets handed out since the last begin
	env   []ids.ID            // primary traversal buffer (friend environments, BFS layers)
	aux   []ids.ID            // secondary buffer (subtree queues, forum lists)
	paths pathBFS             // Q13/Q14's search state
	tags  KeyTable[int]       // Q4/Q6: posts per tag
	likes KeyTable[Q7Row]     // Q7: latest like per liker
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Era returns the era of the last frozen view the scratch was bound to
// (0 before the first view-path query). Ordinal-keyed state derived from
// the scratch is invalid once the current view's era differs.
func (sc *Scratch) Era() uint64 { return sc.era }

// begin binds the scratch to one query execution over r, resetting all
// scratch state. Visited sets handed out afterwards are keyed by view
// ordinals when r is a frozen view and by node-ID hash sets otherwise.
// Crossing a view era invalidates every pooled set, handed out this query
// or not.
func (sc *Scratch) begin(r store.Reader) {
	v := r.Frozen()
	if v != nil && v.Era() != sc.era {
		for _, s := range sc.sets {
			s.invalidate()
		}
		sc.paths.invalidate()
		sc.era = v.Era()
	}
	sc.v = v
	sc.used = 0
	sc.env = sc.env[:0]
	sc.aux = sc.aux[:0]
}

// Begin binds the scratch to one query execution over r, resetting all
// pooled state. It is the exported entry for traversal code outside this
// package (internal/bi's graph predicates run over the same scratch
// machinery); the Interactive queries call the unexported begin directly.
func (sc *Scratch) Begin(r store.Reader) { sc.begin(r) }

// Seen is an exported handle on one pooled visited set: a dense ordinal
// bitset when the owning scratch is bound to a frozen view, a node-ID hash
// set on the MVCC path. A Seen is valid until the next Begin on its
// scratch, and follows the scratch's aliasing rules (one goroutine).
type Seen struct{ s *seenSet }

// Seen draws a cleared visited set from the scratch's pool.
func (sc *Scratch) Seen() Seen { return Seen{sc.newSeen()} }

// TryMark marks a node, reporting whether it was unseen. On the view path,
// nodes outside the view count as already seen (never the case for edge
// endpoints, which the store materialises).
func (s Seen) TryMark(id ids.ID) bool { return s.s.tryMark(id) }

// Has reports whether a node is marked.
func (s Seen) Has(id ids.ID) bool { return s.s.has(id) }

// newSeen returns a cleared visited set drawn from the scratch's pool. The
// set is valid until the next begin.
func (sc *Scratch) newSeen() *seenSet {
	if sc.used == len(sc.sets) {
		sc.sets = append(sc.sets, &seenSet{})
	}
	s := sc.sets[sc.used]
	sc.used++
	s.bind(sc.v)
	return s
}

// seenSet is one visited set: a dense ordinal bitset when bound to a frozen
// view, a KeyTable of node IDs otherwise. The dual representation is what
// lets one generic query implementation keep the view path's
// zero-allocation adjacency iteration while remaining correct on the MVCC
// path: the ordinal is the bitset's index, so the view side needs no hash.
type seenSet struct {
	v    *store.SnapshotView
	bits bitset.Set
	byID KeyTable[struct{}]
}

// invalidate discards the set's ordinal-keyed state (view binding and
// marked bits) while keeping the allocated capacity. Called on era bumps:
// after a recompaction the same ordinal names a different node, so
// surviving bits would be silently wrong rather than merely stale. This is
// defence in depth for sets the next queries never re-bind — bind clears
// each set it hands out regardless.
func (s *seenSet) invalidate() {
	s.v = nil
	s.bits.Reset()
}

// bind prepares the set for one traversal over v (nil = MVCC path).
func (s *seenSet) bind(v *store.SnapshotView) {
	s.v = v
	if v != nil {
		s.bits.Grow(v.NumNodes())
		s.bits.Reset()
		return
	}
	s.byID.Reset()
}

// tryMark marks a node, reporting whether it was unseen. On the view path,
// nodes outside the view count as already seen (never the case for edge
// endpoints, which the store materialises).
func (s *seenSet) tryMark(id ids.ID) bool {
	if s.v != nil {
		o, ok := s.v.Ord(id)
		if !ok {
			return false
		}
		return s.bits.TrySet(o)
	}
	_, added := s.byID.At(uint64(id))
	return added
}

// has reports whether a node is marked.
func (s *seenSet) has(id ids.ID) bool {
	if s.v != nil {
		o, ok := s.v.Ord(id)
		return ok && s.bits.Has(o)
	}
	return s.byID.Find(uint64(id)) != nil
}

// friendsOf fills sc.env with the distinct direct friends of p (excluding
// p), in edge insertion order. The result aliases sc.env.
func friendsOf[R store.Reader](r R, sc *Scratch, p ids.ID) []ids.ID {
	seen := sc.newSeen()
	seen.tryMark(p)
	sc.env = sc.env[:0]
	for _, e := range r.Out(p, store.EdgeKnows) {
		if seen.tryMark(e.To) {
			sc.env = append(sc.env, e.To)
		}
	}
	return sc.env
}

// friendsAndFoF fills sc.env with the distinct persons within two
// knows-hops of p, excluding p itself — the "2-hop environment" whose size
// distribution Figure 5(a) plots. It returns the environment (aliasing
// sc.env) together with its visited set (which additionally contains p) for
// queries that need membership tests afterwards.
func friendsAndFoF[R store.Reader](r R, sc *Scratch, p ids.ID) ([]ids.ID, *seenSet) {
	seen := sc.newSeen()
	seen.tryMark(p)
	sc.env = sc.env[:0]
	for _, e := range r.Out(p, store.EdgeKnows) {
		if seen.tryMark(e.To) {
			sc.env = append(sc.env, e.To)
		}
	}
	direct := len(sc.env)
	for i := 0; i < direct; i++ {
		for _, e := range r.Out(sc.env[i], store.EdgeKnows) {
			if seen.tryMark(e.To) {
				sc.env = append(sc.env, e.To)
			}
		}
	}
	return sc.env, seen
}

// TwoHopEnv exposes the 2-hop expansion for benchmarks and external
// callers: the distinct persons within two knows-hops of p, excluding p.
// The result aliases sc's buffers and is valid until the next query on sc;
// on the view path, iterating it allocates nothing once the scratch is
// warm.
func TwoHopEnv[R store.Reader](r R, sc *Scratch, p ids.ID) []ids.ID {
	sc.begin(r)
	env, _ := friendsAndFoF(r, sc, p)
	return env
}

// messagesOf returns the messages created by a person as (id, creationDate)
// pairs, exploiting the hasCreator reverse adjacency whose stamps carry the
// message creation dates. On the view path this is a zero-copy slab
// subslice.
func messagesOf[R store.Reader](r R, p ids.ID) []store.Edge {
	return r.In(p, store.EdgeHasCreator)
}

// isFriend reports whether a and b are directly connected.
func isFriend[R store.Reader](r R, a, b ids.ID) bool {
	for _, e := range r.Out(a, store.EdgeKnows) {
		if e.To == b {
			return true
		}
	}
	return false
}
