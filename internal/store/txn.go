package store

import (
	"errors"
	"fmt"
	"sort"

	"ldbcsnb/internal/ids"
)

// ErrExists is returned when creating a node whose ID is already taken:
// node properties are write-once and edges insert-only, so a node ID created
// twice is the only write-write conflict, and the second committer loses.
var ErrExists = errors.New("store: node already exists")

// ErrStoreClosed is returned by Commit and AcquireViewChecked once the
// store has been closed (Persistent.Close, or MarkClosed on an in-memory
// store). It replaces the pre-close race where a commit could deposit into
// a draining WAL and be silently dropped in non-SyncCommit modes: the
// closed flag is raised under commitMu before the WAL shuts down, so every
// commit either fully precedes Close (its record reaches the WAL before it
// drains) or observes the flag and fails with this sentinel.
var ErrStoreClosed = errors.New("store: closed")

// pendingNode is a buffered node creation.
type pendingNode struct {
	id    ids.ID
	props Props
}

// pendingEdge is a buffered edge insertion.
type pendingEdge struct {
	from, to ids.ID
	t        EdgeType
	stamp    int64
	sym      bool // also insert the mirrored edge (knows)
}

// Txn is a transaction. Reads observe the snapshot taken at Begin plus the
// transaction's own writes. Txn is not safe for concurrent use by multiple
// goroutines.
type Txn struct {
	s        *Store
	snapshot int64
	readonly bool
	done     bool

	newNodes  map[ids.ID]*pendingNode
	newEdges  []pendingEdge
	edgeIndex map[ids.ID][]int // from-node -> indices into newEdges, for own-write reads
}

// Snapshot returns the transaction's snapshot timestamp.
func (tx *Txn) Snapshot() int64 { return tx.snapshot }

// CreateNode buffers creation of a node with the given properties. The
// node's creationDate property, if present, should match the workload's
// simulation time; the store itself only assigns the commit timestamp.
// An exactly sized list (cap == len) is stored as given and must not be
// written afterwards; one with spare capacity is copied first. The ID's
// kind must be below ids.KindLimit: a view keeps one scan list per kind.
func (tx *Txn) CreateNode(id ids.ID, props Props) error {
	if tx.readonly {
		return errors.New("store: write in read-only transaction")
	}
	if id.Kind() >= ids.KindLimit {
		return fmt.Errorf("store: node %v has an invalid kind", id)
	}
	if tx.newNodes == nil {
		tx.newNodes = make(map[ids.ID]*pendingNode)
	}
	if _, ok := tx.newNodes[id]; ok {
		return fmt.Errorf("%w: %v created twice in transaction", ErrExists, id)
	}
	tx.newNodes[id] = &pendingNode{id: id, props: props.exact()}
	return nil
}

// AddEdge buffers insertion of a directed edge with a stamp attribute.
func (tx *Txn) AddEdge(from ids.ID, t EdgeType, to ids.ID, stamp int64) error {
	return tx.addEdge(from, t, to, stamp, false)
}

// AddKnows buffers a symmetric knows edge between two persons.
func (tx *Txn) AddKnows(a, b ids.ID, stamp int64) error {
	return tx.addEdge(a, EdgeKnows, b, stamp, true)
}

func (tx *Txn) addEdge(from ids.ID, t EdgeType, to ids.ID, stamp int64, sym bool) error {
	if tx.readonly {
		return errors.New("store: write in read-only transaction")
	}
	if t == 0 || t >= edgeTypeMax {
		return fmt.Errorf("store: invalid edge type %d", uint8(t))
	}
	if tx.edgeIndex == nil {
		tx.edgeIndex = make(map[ids.ID][]int)
	}
	idx := len(tx.newEdges)
	tx.newEdges = append(tx.newEdges, pendingEdge{from: from, to: to, t: t, stamp: stamp, sym: sym})
	tx.edgeIndex[from] = append(tx.edgeIndex[from], idx)
	if sym {
		tx.edgeIndex[to] = append(tx.edgeIndex[to], idx)
	}
	return nil
}

// Exists reports whether a node is visible.
func (tx *Txn) Exists(id ids.ID) bool {
	if _, ok := tx.newNodes[id]; ok {
		return true
	}
	return tx.s.visibleAt(id, tx.snapshot)
}

// Prop returns one property of a node (zero Value if the node or property
// is absent).
func (tx *Txn) Prop(id ids.ID, key PropKey) Value {
	ps, _ := tx.props(id)
	return ps.Get(key)
}

// Props returns an exactly sized copy of all visible properties of a node.
func (tx *Txn) Props(id ids.ID) (Props, bool) {
	ps, ok := tx.props(id)
	return ps.clone(), ok
}

// props returns the node's property list: the transaction's own creation,
// or the committed row when the node is visible at the snapshot. The row is
// shared and must not be written.
func (tx *Txn) props(id ids.ID) (Props, bool) {
	if n, ok := tx.newNodes[id]; ok {
		return n.props, true
	}
	sh := tx.s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if rec := sh.nodes[id]; rec != nil && rec.commit <= tx.snapshot {
		return rec.props, true
	}
	return nil, false
}

// Out returns the visible outgoing edges of a node for one edge type, in
// insertion order, including the transaction's own buffered edges. The
// slice is materialised at this call; it does not observe later writes.
func (tx *Txn) Out(id ids.ID, t EdgeType) []Edge {
	return tx.neighbours(id, t, false)
}

// In returns the visible incoming edges of a node for one edge type.
func (tx *Txn) In(id ids.ID, t EdgeType) []Edge {
	return tx.neighbours(id, t, true)
}

// OutDegree returns the number of visible outgoing edges without
// materialising them.
func (tx *Txn) OutDegree(id ids.ID, t EdgeType) int {
	return tx.degree(id, t, false)
}

// InDegree returns the number of visible incoming edges without
// materialising them.
func (tx *Txn) InDegree(id ids.ID, t EdgeType) int {
	return tx.degree(id, t, true)
}

func (tx *Txn) degree(id ids.ID, t EdgeType, in bool) int {
	n := 0
	sh := tx.s.shardFor(id)
	sh.mu.RLock()
	if rec := sh.nodes[id]; rec != nil {
		list := rec.adj.get(t, in)
		for i := range list {
			if list[i].visibleAt(tx.snapshot) {
				n++
			}
		}
	}
	sh.mu.RUnlock()
	for _, ei := range tx.edgeIndex[id] {
		pe := tx.newEdges[ei]
		if pe.t != t {
			continue
		}
		if in {
			if pe.to == id || (pe.sym && pe.from == id) {
				n++
			}
		} else if pe.from == id || (pe.sym && pe.to == id) {
			n++
		}
	}
	return n
}

func (tx *Txn) neighbours(id ids.ID, t EdgeType, in bool) []Edge {
	var out []Edge
	sh := tx.s.shardFor(id)
	sh.mu.RLock()
	if rec := sh.nodes[id]; rec != nil {
		list := rec.adj.get(t, in)
		out = make([]Edge, 0, len(list))
		for i := range list {
			if e := &list[i]; e.visibleAt(tx.snapshot) {
				out = append(out, Edge{To: e.peer, Stamp: e.stamp})
			}
		}
	}
	sh.mu.RUnlock()
	// Overlay own buffered edges.
	for _, ei := range tx.edgeIndex[id] {
		pe := tx.newEdges[ei]
		if pe.t != t {
			continue
		}
		switch {
		case !in && pe.from == id:
			out = append(out, Edge{To: pe.to, Stamp: pe.stamp})
		case !in && pe.sym && pe.to == id:
			out = append(out, Edge{To: pe.from, Stamp: pe.stamp})
		case in && pe.to == id:
			out = append(out, Edge{To: pe.from, Stamp: pe.stamp})
		case in && pe.sym && pe.from == id:
			out = append(out, Edge{To: pe.to, Stamp: pe.stamp})
		}
	}
	return out
}

// NodesOfKind returns the IDs of all nodes of a kind visible to the
// transaction (committed only; buffered creations of this transaction are
// excluded, matching scan semantics of a snapshot).
// The slice shares the store's kind list and must not be mutated.
func (tx *Txn) NodesOfKind(kind ids.Kind) []ids.ID {
	return tx.s.nodesOfKind(kind, tx.snapshot)
}

// Abort discards the transaction.
func (tx *Txn) Abort() {
	if !tx.done {
		tx.done = true
		tx.s.aborts.Add(1)
	}
}

// Commit validates and installs the transaction's writes atomically,
// returning ErrExists if a created node ID was concurrently taken.
//
// The critical section under commitMu is short: validate, install, claim
// the commit timestamp and serialise the redo record into the WAL's
// pending buffer. The durability wait — in fsync-on-commit mode — happens
// after commitMu is released, parked on the group-commit batcher's
// watermark, so concurrent committers share fsyncs instead of serialising
// behind them (groupcommit.go).
func (tx *Txn) Commit() error {
	if tx.done {
		return errors.New("store: transaction finished")
	}
	tx.done = true
	if tx.readonly || (len(tx.newNodes) == 0 && len(tx.newEdges) == 0) {
		tx.s.commits.Add(1)
		return nil
	}
	s := tx.s
	s.commitMu.Lock()
	ts, err := tx.commitLocked()
	s.commitMu.Unlock()
	if err != nil {
		return err
	}
	if s.gwal != nil && s.gwal.mode == SyncCommit {
		// fsync-on-commit: the record is durable before Commit returns.
		// Readers may observe the transaction before the fsync lands (the
		// clock advanced inside the critical section), matching the
		// pre-batching visibility order of concurrent commits.
		if werr := s.gwal.waitDurable(ts); werr != nil {
			return fmt.Errorf("store: commit logged partially: %w", werr)
		}
	}
	return nil
}

// commitLocked runs Commit's critical section under commitMu: validation,
// installation, timestamp claim and WAL deposit. It returns the claimed
// commit timestamp (0 when validation failed).
//
//snb:locked commitMu
func (tx *Txn) commitLocked() (int64, error) {
	s := tx.s

	// Closed stores fail before validation: a deposit past this point would
	// race the draining WAL (MarkClosed flips the flag under commitMu,
	// so the read here is ordered against the shutdown fence).
	if s.closed.Load() {
		s.aborts.Add(1)
		return 0, ErrStoreClosed
	}

	// Validation: a created ID must still be free — neither created nor
	// materialised as a bare edge endpoint by any commit so far.
	for id := range tx.newNodes {
		sh := s.shardFor(id)
		sh.mu.RLock()
		_, exists := sh.nodes[id]
		sh.mu.RUnlock()
		if exists {
			s.aborts.Add(1)
			return 0, fmt.Errorf("%w: %v", ErrExists, id)
		}
	}

	ts := s.clock.Load() + 1
	// The commit's view-maintenance delta, recorded alongside the WAL
	// append so CurrentView can advance the cached view incrementally —
	// once there is a cached view to advance (Store.recording).
	var delta *CommitDelta
	if s.recording {
		delta = &CommitDelta{ts: ts}
	}

	// Install node creations in deterministic ID order so the per-kind
	// scan lists are reproducible (and the redo record replays them in it).
	created := make([]*pendingNode, 0, len(tx.newNodes))
	for _, n := range tx.newNodes {
		created = append(created, n)
	}
	sort.Slice(created, func(i, j int) bool { return created[i].id < created[j].id })
	s.install(delta, ts, created, tx.newEdges)

	// Record the view-maintenance delta before the clock advances so a
	// refresh observing the new watermark always finds its deltas.
	if delta != nil {
		s.recordDelta(delta)
	}

	// Hand the redo record to the WAL before publishing the commit (still
	// under commitMu, so deposits preserve commit order — the invariant
	// behind the durability watermark).
	if s.gwal != nil {
		s.gwal.deposit(ts, created, tx.newEdges)
	}

	// Advance the watermark: the transaction becomes visible atomically.
	s.clock.Store(ts)
	s.commits.Add(1)
	return ts, nil
}

// install stores one transaction's writes at commit timestamp ts: the
// created nodes (in the order given), their kind-list entries and every
// edge in both directions. It is the whole of a commit's install — Commit's
// critical section runs it between validation and the WAL deposit, and WAL
// replay runs it per record with a nil delta — and it leaves the clock to
// the caller. The installs are mirrored into delta when it is non-nil.
//
// Edges tolerate endpoints that were never created: installEdge
// materialises a bare record (no properties) so the adjacency stays
// navigable, the way column stores keep FK rows.
func (s *Store) install(delta *CommitDelta, ts int64, created []*pendingNode, edges []pendingEdge) {
	for _, n := range created {
		sh := s.shardFor(n.id)
		sh.mu.Lock()
		sh.nodes[n.id] = &nodeRec{id: n.id, commit: ts, props: n.props}
		sh.mu.Unlock()
		if delta != nil {
			delta.nodes = append(delta.nodes, deltaNode{id: n.id, props: n.props, inKindList: true})
		}
	}
	if len(created) > 0 {
		s.kindMu.Lock()
		for _, n := range created {
			s.byKind[n.id.Kind()] = append(s.byKind[n.id.Kind()], n.id)
		}
		s.kindMu.Unlock()
	}
	for _, pe := range edges {
		s.installEdge(delta, pe.from, pe.t, pe.to, pe.stamp, ts, false)
		if pe.sym {
			s.installEdge(delta, pe.to, pe.t, pe.from, pe.stamp, ts, false)
		} else {
			s.installEdge(delta, pe.to, pe.t, pe.from, pe.stamp, ts, true)
		}
	}
}

// installEdge appends one adjacency entry; reverse=true stores it in the
// peer's in-list instead of the out-list. The install is mirrored into the
// commit delta, including any bare node record materialised for a missing
// endpoint; delta is nil when no cached view exists to maintain (recovery's
// lean replay, and every commit before the first view).
func (s *Store) installEdge(delta *CommitDelta, from ids.ID, t EdgeType, to ids.ID, stamp, ts int64, reverse bool) {
	sh := s.shardFor(from)
	sh.mu.Lock()
	rec := sh.nodes[from]
	if rec == nil {
		rec = &nodeRec{id: from, commit: ts}
		sh.nodes[from] = rec
		if delta != nil {
			delta.nodes = append(delta.nodes, deltaNode{id: from})
		}
	}
	list := rec.adj.ref(t, reverse)
	*list = append(*list, edgeRec{peer: to, stamp: stamp, commit: ts})
	sh.mu.Unlock()
	if delta != nil {
		delta.edges = append(delta.edges, deltaEdge{owner: from, peer: to, stamp: stamp, t: t, in: reverse})
	}
}
