package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ldbcsnb/internal/ids"
)

// ErrExists is returned when creating a node whose ID is already taken:
// node properties are write-once and edges insert-only, so a node ID created
// twice is the only write-write conflict, and the second committer loses.
var ErrExists = errors.New("store: node already exists")

// ErrStoreClosed is returned by Commit and AcquireViewChecked once the
// store has been closed (Persistent.Close, or MarkClosed on an in-memory
// store). It replaces the pre-close race where a commit could append behind
// a draining WAL and be silently dropped in non-SyncCommit modes: the
// closed flag is raised under commitMu before the WAL shuts down, so every
// commit either fully precedes Close (its record reaches the WAL before it
// drains) or observes the flag and fails with this sentinel.
var ErrStoreClosed = errors.New("store: closed")

// errTxnDone is returned by a write or Commit on a transaction that has
// committed or aborted: a committed transaction's buffers are its recorded
// write set, which nothing may extend.
var errTxnDone = errors.New("store: transaction finished")

// pendingNode is one node creation of a write set.
type pendingNode struct {
	id    ids.ID
	props Props
}

// pendingEdge is one edge insertion of a write set.
type pendingEdge struct {
	from, to ids.ID
	stamp    int64
	t        EdgeType
	sym      bool // also insert the mirrored edge (knows)
}

// Txn is a transaction: a snapshot to read and, for a write transaction, the
// write set it buffers. Reads see the snapshot taken at Begin and nothing
// else: the transaction's own writes become visible when it commits, like
// every other commit's. The update stream never reads inside a write
// transaction (U1–U8 are blind inserts), so nothing is lost. Txn is not safe
// for concurrent use by multiple goroutines.
type Txn struct {
	s        *Store
	snapshot int64
	readonly bool
	done     bool

	// The write set, in call order until Commit sorts nodes by ID. Commit
	// hands both slices on as they are: they are what install stores, what
	// the view refresh applies and what the WAL serialises (CommitDelta).
	nodes []pendingNode
	edges []pendingEdge
}

// Snapshot returns the transaction's snapshot timestamp.
func (tx *Txn) Snapshot() int64 { return tx.snapshot }

// writable reports why the transaction cannot buffer a write, nil if it can.
func (tx *Txn) writable() error {
	if tx.readonly {
		return errors.New("store: write in read-only transaction")
	}
	if tx.done {
		return errTxnDone
	}
	return nil
}

// CreateNode buffers creation of a node with the given properties. The
// node's creationDate property, if present, should match the workload's
// simulation time; the store itself only assigns the commit timestamp.
// An exactly sized list (cap == len) is stored as given and must not be
// written afterwards; one with spare capacity is copied first. The ID's
// kind must be below ids.KindLimit: a view keeps one scan list per kind.
// An ID created twice, in this transaction or by another, fails Commit
// with ErrExists.
func (tx *Txn) CreateNode(id ids.ID, props Props) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if id.Kind() >= ids.KindLimit {
		return fmt.Errorf("store: node %v has an invalid kind", id)
	}
	tx.nodes = append(tx.nodes, pendingNode{id: id, props: props.exact()})
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
	if err := tx.writable(); err != nil {
		return err
	}
	if t == 0 || t >= edgeTypeMax {
		return fmt.Errorf("store: invalid edge type %d", uint8(t))
	}
	tx.edges = append(tx.edges, pendingEdge{from: from, to: to, t: t, stamp: stamp, sym: sym})
	return nil
}

// Exists reports whether a node is visible.
func (tx *Txn) Exists(id ids.ID) bool {
	return tx.s.visibleAt(id, tx.snapshot)
}

// Resolve returns the handle of a node. On a Txn a Node is just the ID:
// every read finds the node record by ID under its shard's lock.
func (tx *Txn) Resolve(id ids.ID) Node { return unresolved(id) }

// ScanKind returns the scan of a kind's visible nodes, taking the kind
// list's lock once for the whole scan.
func (tx *Txn) ScanKind(kind ids.Kind) KindScan { return KindScan{nodes: tx.NodesOfKind(kind)} }

// Prop returns one property of a node (zero Value if the node or property
// is absent).
func (tx *Txn) Prop(id ids.ID, key PropKey) Value { return tx.PropOf(tx.Resolve(id), key) }

// PropOf is Prop of a resolved node.
func (tx *Txn) PropOf(n Node, key PropKey) Value {
	ps, _ := tx.props(n.id)
	return ps.Get(key)
}

// Props returns an exactly sized copy of all visible properties of a node.
func (tx *Txn) Props(id ids.ID) (Props, bool) {
	ps, ok := tx.props(id)
	return ps.clone(), ok
}

// props returns the committed row of a node visible at the snapshot. The
// row is shared and must not be written.
func (tx *Txn) props(id ids.ID) (Props, bool) {
	sh := tx.s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if rec := sh.nodes[id]; rec != nil && rec.commit <= tx.snapshot {
		return rec.props, true
	}
	return nil, false
}

// Out returns the visible outgoing edges of a node for one edge type, in
// insertion order. The slice is materialised at this call; it does not
// observe later commits.
func (tx *Txn) Out(id ids.ID, t EdgeType) []Edge { return tx.OutOf(tx.Resolve(id), t) }

// OutOf is Out of a resolved node.
func (tx *Txn) OutOf(n Node, t EdgeType) []Edge { return tx.neighbours(n.id, t, false) }

// In returns the visible incoming edges of a node for one edge type.
func (tx *Txn) In(id ids.ID, t EdgeType) []Edge { return tx.InOf(tx.Resolve(id), t) }

// InOf is In of a resolved node.
func (tx *Txn) InOf(n Node, t EdgeType) []Edge { return tx.neighbours(n.id, t, true) }

// OutNodes is OutOf as a NodeRow; on a Txn its Nodes are the IDs.
func (tx *Txn) OutNodes(n Node, t EdgeType) NodeRow { return idRow(tx.OutOf(n, t)) }

// InNodes is InOf as a NodeRow.
func (tx *Txn) InNodes(n Node, t EdgeType) NodeRow { return idRow(tx.InOf(n, t)) }

// OutDegree returns the number of visible outgoing edges without
// materialising them.
func (tx *Txn) OutDegree(id ids.ID, t EdgeType) int { return tx.OutDegreeOf(tx.Resolve(id), t) }

// OutDegreeOf is OutDegree of a resolved node.
func (tx *Txn) OutDegreeOf(n Node, t EdgeType) int { return tx.degree(n.id, t, false) }

// InDegree returns the number of visible incoming edges without
// materialising them.
func (tx *Txn) InDegree(id ids.ID, t EdgeType) int { return tx.InDegreeOf(tx.Resolve(id), t) }

// InDegreeOf is InDegree of a resolved node.
func (tx *Txn) InDegreeOf(n Node, t EdgeType) int { return tx.degree(n.id, t, true) }

func (tx *Txn) degree(id ids.ID, t EdgeType, in bool) int {
	sh := tx.s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec := sh.nodes[id]
	if rec == nil {
		return 0
	}
	return countVisible(rec.adj.get(t, in), tx.snapshot)
}

func (tx *Txn) neighbours(id ids.ID, t EdgeType, in bool) []Edge {
	sh := tx.s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec := sh.nodes[id]
	if rec == nil {
		return nil
	}
	list := rec.adj.get(t, in)
	out := make([]Edge, 0, len(list))
	for i := range list {
		if e := &list[i]; e.visibleAt(tx.snapshot) {
			out = append(out, Edge{To: e.peer, Stamp: e.stamp})
		}
	}
	return out
}

// NodesOfKind returns the IDs of all nodes of a kind visible to the
// transaction. The slice shares the store's kind list and must not be
// mutated.
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
// returning ErrExists if a created node ID is taken: by an earlier commit,
// or twice in this transaction. A failed commit installs nothing and logs
// nothing.
//
// The critical section under commitMu is short: validate, install, claim
// the commit timestamp and append the write set to the commit log. The
// WAL flusher serialises and writes the record after commitMu is released,
// and the durability wait — in fsync-on-commit mode — parks on its
// durable watermark, so concurrent committers share fsyncs instead of
// serialising behind them (groupcommit.go).
func (tx *Txn) Commit() error {
	if tx.done {
		return errTxnDone
	}
	tx.done = true
	if tx.readonly || (len(tx.nodes) == 0 && len(tx.edges) == 0) {
		tx.s.commits.Add(1)
		return nil
	}
	s := tx.s
	// Before the lock: the write set is the transaction's own.
	if err := sortCreated(tx.nodes); err != nil {
		s.aborts.Add(1)
		return err
	}
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
// installation, timestamp claim and the append to the commit log. It returns the claimed
// commit timestamp (0 when validation failed).
//
//snb:locked commitMu
func (tx *Txn) commitLocked() (int64, error) {
	s := tx.s
	if err := s.admit(tx.nodes); err != nil {
		return 0, err
	}

	// The write set is the commit: installed here, and appended to the
	// commit log — in commit order, before the clock advances — for the
	// view refresh and the WAL flusher.
	d := &CommitDelta{ts: s.clock.Load() + 1, nodes: tx.nodes, edges: tx.edges}
	s.install(d)
	s.log.append(d, s.compactTrigger(s.view.Load()))

	// Advance the watermark: the transaction becomes visible atomically.
	s.clock.Store(d.ts)
	s.commits.Add(1)
	return d.ts, nil
}

// sortCreated sorts a write set's created nodes into ID order, the order
// they install in, so the per-kind scan lists are reproducible (and the
// redo record replays them in it); sorted, an ID created twice is an
// adjacent pair, which fails with ErrExists.
func sortCreated(nodes []pendingNode) error {
	slices.SortFunc(nodes, func(a, b pendingNode) int { return cmp.Compare(a.id, b.id) })
	for i := 1; i < len(nodes); i++ {
		if id := nodes[i].id; id == nodes[i-1].id {
			return fmt.Errorf("%w: %v created twice in one commit", ErrExists, id)
		}
	}
	return nil
}

// admit validates a commit that creates nodes, under commitMu. A closed
// store fails it first: an append past this point would race the draining
// WAL (MarkClosed flips the flag under commitMu, so the read is ordered
// against the shutdown fence). Then each created ID must still be free —
// neither created nor materialised as a bare edge endpoint by any commit so
// far. A failure counts as an abort.
//
//snb:locked commitMu
func (s *Store) admit(nodes []pendingNode) error {
	err := error(nil)
	if s.closed.Load() {
		err = ErrStoreClosed
	}
	for i := 0; i < len(nodes) && err == nil; i++ {
		sh := s.shardFor(nodes[i].id)
		sh.mu.RLock()
		if _, taken := sh.nodes[nodes[i].id]; taken {
			err = fmt.Errorf("%w: %v", ErrExists, nodes[i].id)
		}
		sh.mu.RUnlock()
	}
	if err != nil {
		s.aborts.Add(1)
	}
	return err
}

// install stores one commit's write set at its timestamp: the created nodes
// (in the order given), their kind-list entries and every edge in both
// directions. It is the whole of a commit's install — Commit's critical
// section runs it between validation and the append to the commit log,
// and WAL replay runs it per decoded record — and it leaves the clock to
// the caller.
//
// Edges tolerate endpoints that were never created: installEdge
// materialises a bare record (no properties) so the adjacency stays
// navigable, the way column stores keep FK rows. The view refresh derives
// the same records from the write set (applyDeltas).
func (s *Store) install(d *CommitDelta) {
	for _, n := range d.nodes {
		sh := s.shardFor(n.id)
		sh.mu.Lock()
		sh.nodes[n.id] = &nodeRec{id: n.id, commit: d.ts, props: n.props}
		sh.mu.Unlock()
	}
	if len(d.nodes) > 0 {
		s.kindMu.Lock()
		for _, n := range d.nodes {
			s.byKind[n.id.Kind()] = append(s.byKind[n.id.Kind()], n.id)
		}
		s.kindMu.Unlock()
	}
	for _, e := range d.edges {
		s.installEdge(e.from, e.t, e.to, e.stamp, d.ts, false)
		s.installEdge(e.to, e.t, e.from, e.stamp, d.ts, !e.sym)
	}
}

// installEdge appends one adjacency entry, materialising a bare node record
// for a missing owner; reverse=true stores it in the owner's in-list
// instead of the out-list.
func (s *Store) installEdge(from ids.ID, t EdgeType, to ids.ID, stamp, ts int64, reverse bool) {
	sh := s.shardFor(from)
	sh.mu.Lock()
	rec := sh.nodes[from]
	if rec == nil {
		rec = &nodeRec{id: from, commit: ts}
		sh.nodes[from] = rec
	}
	list := rec.adj.ref(t, reverse)
	*list = append(*list, edgeRec{peer: to, stamp: stamp, commit: ts})
	sh.mu.Unlock()
}
