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
// *store.Txn it is the transactional formulation (MVCC filtering);
// instantiated with *store.SnapshotView it is the Interactive hot path
// (lock-free CSR subslices, no allocation in the adjacency loops). The
// traversal state is the same on both: KeyTables keyed by node ID.
// Results are identical between the two instantiations at the same
// snapshot timestamp — every result ordering tie-breaks on a unique ID, so
// selection and order are deterministic; the equivalence property tests
// (view_test.go) pin this for all queries and the short-read chain.
//
// # Hops
//
// A hop whose neighbours the query reads again goes through a Node row
// (store.Reader's OutNodes and InNodes): a person's messages to their
// tags, parents, likes or replies (messageNodes), a forum's posts to their
// creators, a reply's parent to its tags or creator, a message's creator,
// and a Q10 candidate to its birthday, messages and interests. On a view a
// base row hands each neighbour over resolved, so reading it again pays no
// ID -> ordinal lookup; everywhere else the Node is the ID. Messages are
// the large kinds, whose lookups miss cache. A hop whose neighbours are
// only listed (their IDs and stamps, as in Q2 and Q9) reads by ID: a row
// read as Nodes costs its decode-cache entry 4 more bytes per neighbour.
// So do the knows walks among persons (Q1's ball, Q13, Q14's path walks)
// and the hops into organisations (Q1, Q11): persons and dimensions are
// small kinds whose lookups hit cache, and reading Q1's and Q11's hops
// through Nodes gained nothing (1000 persons: Q1 p50 191 -> 192 us, Q11 34
// -> 37 us). That Q1 expanded its third layer, some 7,200 knows entries;
// Q1 now walks the radius-2 ball, about 500, and scans the persons' names
// for the rest, reading each through the scan's Node. Visited sets,
// frontiers and path distances over persons stay keyed by ID for the same
// reason: an ordinal-keyed set gained nothing on Q1.
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
// Every keyed structure is a KeyTable (keytable.go), the one hashed table of
// the query layers: the visited sets, the path distances, Q4/Q6's tag
// counts, Q7's latest like per liker, Q9Join's hash tables, the BI partials
// and the declarative executor's dedup sets and groups. Queries reset all
// scratch state on entry. The aliasing rules:
//
//   - One Scratch serves one goroutine; never share it.
//   - Slices returned by helpers that traverse (TwoHopEnv) alias the
//     scratch's buffers and are valid only until the next query on the same
//     Scratch. Copy them to keep them.
//   - Query results (Q*Row slices) never alias the scratch — they are safe
//     to retain.
package workload

import (
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Scratch is the reusable per-executor traversal state of the unified query
// path: a pool of visited sets, ID buffers, the path search's state
// (pathBFS) and keyed counters, recycled across queries so the hot loops
// stay allocation-free once the buffers have warmed up to the working-set
// size. Every keyed piece of it is a KeyTable keyed by node ID, so it is
// the same on both readers and holds nothing tied to one view. See the
// package documentation for the aliasing rules.
type Scratch struct {
	sets  []*seenSet      // visited-set pool, recycled across queries
	used  int             // sets handed out since the last begin
	env   []ids.ID        // primary traversal buffer (friend environments, BFS layers)
	aux   []ids.ID        // secondary buffer (subtree queues, forum lists)
	paths pathBFS         // Q13/Q14's search state
	tags  KeyTable[int]   // Q4/Q6: posts per tag
	likes KeyTable[Q7Row] // Q7: latest like per liker
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// begin starts one query execution, returning every pooled set to the pool
// and emptying the ID buffers.
func (sc *Scratch) begin() {
	sc.used = 0
	sc.env = sc.env[:0]
	sc.aux = sc.aux[:0]
}

// Begin starts one query execution, resetting all pooled state. It is the
// exported entry for traversal code outside this package (internal/bi's
// graph predicates run over the same scratch machinery); the Interactive
// queries call the unexported begin directly.
func (sc *Scratch) Begin() { sc.begin() }

// Seen is an exported handle on one pooled visited set. A Seen is valid
// until the next Begin on its scratch, and follows the scratch's aliasing
// rules (one goroutine).
type Seen struct{ s *seenSet }

// Seen draws a cleared visited set from the scratch's pool.
func (sc *Scratch) Seen() Seen { return Seen{sc.newSeen()} }

// TryMark marks a node, reporting whether it was unseen.
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
	s.marked.Reset()
	return s
}

// seenSet is one visited set: the node IDs marked since it was handed out.
type seenSet struct{ marked KeyTable[struct{}] }

// tryMark marks a node, reporting whether it was unseen.
func (s *seenSet) tryMark(id ids.ID) bool {
	_, added := s.marked.At(uint64(id))
	return added
}

// has reports whether a node is marked.
func (s *seenSet) has(id ids.ID) bool { return s.marked.Find(uint64(id)) != nil }

// pos returns how many nodes were marked before id, -1 for an unmarked id.
func (s *seenSet) pos(id ids.ID) int { return s.marked.Pos(uint64(id)) }

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
	sc.begin()
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

// messageNodes is messagesOf as a NodeRow, for the queries that read each
// message again (its tags, parent, likes, replies): on a view the row hands
// each message over resolved, so those reads pay no lookup.
func messageNodes[R store.Reader](r R, p store.Node) store.NodeRow {
	return r.InNodes(p, store.EdgeHasCreator)
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
