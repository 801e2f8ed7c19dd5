package store

import "ldbcsnb/internal/ids"

// Reader is the uniform read surface of the store. Every read-only query in
// internal/workload is written exactly once against this contract and runs
// on either of the two read paths:
//
//   - *Txn — MVCC snapshot filtering under shard read locks; a write
//     transaction reads its snapshot, not its own buffered writes;
//   - *SnapshotView — a frozen compact CSR image of one commit epoch,
//     lock-free and steady-state allocation-free (OutOf/InOf serve rows out of
//     the view's decode cache over the varint/delta slab).
//
// Queries take a type parameter constrained by Reader
// (func Q9[R Reader](r R, ...)) rather than the interface itself, so the
// concrete read path is fixed at each call site. Per-traversal state
// (visited sets, path distances) lives outside the reader, in
// workload.Scratch, keyed by node ID, so these methods are the whole
// contract between the store and the query layers.
//
// # Nodes
//
// Every read names its node by a Node. A view finds a node's rows by its
// ordinal, so a read by a bare ID first looks the ID up
// (SnapshotView.ord). A Node is a handle: the ID plus, when a view resolved
// it, its ordinal and the low 32 bits of the view's era, 16 bytes in all.
// ByID makes the handle of a node read once: unresolved, so each read
// through it looks the ID up. Resolve makes a resolved one, a KindScan
// yields one per scanned node, and a NodeRow one per neighbour; the reads
// through them skip the lookup. One rule picks the handle at every site:
//
//   - a node read twice or more is resolved once with Resolve (a query's
//     parameters at bind);
//   - a neighbour comes from the NodeRow or KindScan the site already
//     holds;
//   - any other node is read through ByID.
//
// A probe on a view of the 1000-person shape (BenchmarkKindScan's ordView,
// 2-core Xeon) reads one scanned post or comment twice, its creator row
// and then its creation date, in ns/op: both reads through ByID 29.2–29.7,
// Resolve before each read 32.7–34.2, Resolve once and then both reads
// 25.9–26.3. A Resolve pays for itself from a node's second read, and a
// Resolve per read costs more than ByID.
//
// A hop reads a row and then the neighbours it lists. OutNodes and InNodes
// read the row as a NodeRow: Edges() is the row OutOf or InOf returns, and
// Node(i) hands neighbour i over as a Node, so the reads of the neighbour
// skip the lookup too. On a view, a row of the base carries its
// neighbours' ordinals: the slab encodes each entry as an ordinal delta,
// and the decode cache keeps the ordinals, in the row's own allocation,
// for every row read as Nodes (codec.go, decCache). A row of the overlay
// or the spill, and every row of a Txn, yields unresolved Nodes: correct,
// and read as fast as through ByID. A row read as Nodes costs 4 more bytes
// an entry in the decode cache, so a read that does not touch the
// neighbours again (their IDs and stamps are all it needs) reads by OutOf
// or InOf.
//
// The ordinals lie past the end of the row, in its spare capacity: OutOf,
// InOf and Edges return every row capped at its length (row[:n:n]), so an
// append by a caller can never write into them.
//
// A Node is valid on every reader: on a Txn it is just the ID. On a view it
// is used as resolved only when it comes from a view of the same era
// (ordinals are stable within an era, and a refresh only appends) and its
// ordinal is below the reading view's NumNodes. Any other Node — one from
// ByID, from another era, from a later view of the era holding a node this
// view does not see, from a Txn, or for a node its reader did not see — is
// resolved again by ID: never wrong, only as slow as a read through ByID.
//
// # Edges into a node
//
// A directed edge x -t-> y is an entry y in x's Out row and an entry x in
// y's In row. A knows edge (Txn.AddKnows) is symmetric: it is an entry at
// each end's Out row, x in y's and y in x's, and in no In row. So InOf
// lists the directed edges into a node only; Into lists every edge into
// it, the knows edges among them, as OutOf lists every edge out of it.
//
// Slices returned by OutOf, InOf, NodeRow.Edges, PropsOf and KindScan.IDs
// alias reader-owned memory and must not be mutated by callers.
type Reader interface {
	// Exists reports whether a node is visible to the reader. It is kept
	// for the benchmark harness's replay check only; a query reads a node
	// through a Node.
	Exists(id ids.ID) bool
	// Out is OutOf(ByID(id), t), kept for the benchmark harness's replay
	// check only.
	Out(id ids.ID, t EdgeType) []Edge

	// Resolve returns the handle of a node, resolved once for the reads
	// that follow.
	Resolve(id ids.ID) Node
	// ScanKind returns the scan of a kind's visible nodes, the list
	// obtained once, yielding element i as a Node.
	ScanKind(kind ids.Kind) KindScan
	// PropOf returns one property of a node (zero Value if the node or
	// property is absent).
	PropOf(n Node, key PropKey) Value
	// PropsOf returns the visible property list of a node: the committed
	// row, shared by every reader that sees the node.
	PropsOf(n Node) (Props, bool)
	// OutOf returns the visible outgoing edges of one type, in insertion
	// order.
	OutOf(n Node, t EdgeType) []Edge
	// InOf returns the visible incoming edges of one type.
	InOf(n Node, t EdgeType) []Edge
	// OutDegreeOf returns len(OutOf(n, t)) without materialising the
	// edges: the Txn path counts in place, the view path reads the row
	// header.
	OutDegreeOf(n Node, t EdgeType) int
	// InDegreeOf returns len(InOf(n, t)) without materialising the edges.
	InDegreeOf(n Node, t EdgeType) int
	// OutNodes is OutOf as a NodeRow, for a hop that reads the neighbours.
	OutNodes(n Node, t EdgeType) NodeRow
	// InNodes is InOf as a NodeRow.
	InNodes(n Node, t EdgeType) NodeRow
}

var (
	_ Reader = (*Txn)(nil)
	_ Reader = (*SnapshotView)(nil)
)

// Node is a node handle (see "Nodes" on Reader). The zero-cost path is a
// view of the resolving era; everywhere else it is the ID.
type Node struct {
	id  ids.ID
	ord int32  // ordinal in the resolving view's era; -1 when unresolved
	era uint32 // low 32 bits of the resolving view's era
}

// ByID returns the handle of a node read once: unresolved, so every view
// looks its ID up, since -1 is never below a view's NumNodes.
//
//snb:noalloc
func ByID(id ids.ID) Node { return Node{id: id, ord: -1} }

// ID returns the node's ID.
func (n Node) ID() ids.ID { return n.id }

// KindScan is one kind's visible nodes, read once per scan (ScanKind), that
// yields each as a Node. On a view it also holds the kind's run of the
// base's ID-sorted ordinals: a base node whose list position equals its
// ordinal within that run — every node of a kind whose nodes were created
// in ID order, as a bulk load's are — resolves with one compare. Any other
// node (appended after the base was compacted, or listed out of ID order)
// is yielded unresolved, so each read of it looks its ID up as a read by ID
// does; that keeps At small enough to inline into the scan loops. On a Txn
// every Node is the ID.
//
// Index is At's inverse: it takes a Node back to its scan position with a
// compare, so a partial over a whole-kind scan can group by position in a
// scan-sized array instead of hashing IDs. It finds the positions At
// resolves and no other: a Node an overlay, a Txn, another era or another
// kind yielded has none, and a caller that still wants a slot for it
// retries with the node Resolve makes or numbers it itself.
type KindScan struct {
	nodes []ids.ID // the kind's visible nodes, insertion order
	base  []ids.ID // the kind's run of the view's base nodes; nil on a Txn
	off   int32    // ordinal of base[0]
	era   uint32   // low 32 bits of the view's era
}

// Len returns the number of nodes the scan yields.
func (s KindScan) Len() int { return len(s.nodes) }

// IDs returns the scanned node IDs in insertion order: element i is
// At(i).ID(). The slice aliases the reader's list and must not be mutated.
func (s KindScan) IDs() []ids.ID { return s.nodes }

// At returns the i-th scanned node, resolved.
//
//snb:noalloc
func (s KindScan) At(i int) Node {
	id := s.nodes[i]
	if i < len(s.base) && s.base[i] == id {
		return Node{id: id, ord: s.off + int32(i), era: s.era}
	}
	return ByID(id)
}

// Indexes reports whether Index can return a position at all: false on a
// Txn, and for a kind the view's base holds no node of.
func (s KindScan) Indexes() bool { return len(s.base) > 0 }

// Index returns i when At(i) is n: n was resolved in the scan's era, its
// ordinal is base position i, and At resolves position i (the kind lists
// it in ID order). It returns -1 for any other Node, every Node on a Txn
// among them.
//
//snb:noalloc
func (s KindScan) Index(n Node) int {
	i := int(n.ord - s.off)
	if n.era != s.era || uint(i) >= uint(len(s.base)) || s.base[i] != n.id || s.nodes[i] != s.base[i] {
		return -1
	}
	return i
}

// NodeRow is one adjacency row read for a hop (OutNodes, InNodes): its
// entries, and each neighbour as a Node. When the row carries its
// neighbours' ordinals, they follow the entries in row's spare capacity
// (packed as codec.go's decCache describes); a row without them has
// cap(row) == len(row) and yields unresolved Nodes.
type NodeRow struct {
	row []Edge
	era uint32 // low 32 bits of the reading view's era
}

// idRow is the NodeRow of a row without ordinals, capped so that nothing
// past its end is taken for them.
func idRow(row []Edge) NodeRow { return NodeRow{row: row[:len(row):len(row)]} }

// Len returns the number of entries.
func (r NodeRow) Len() int { return len(r.row) }

// Edges returns the entries: the slice OutOf or InOf returns, capped at
// its length. It aliases reader-owned memory and must not be mutated.
func (r NodeRow) Edges() []Edge { return r.row[:len(r.row):len(r.row)] }

// Node returns entry i's neighbour, resolved when the row carries
// ordinals.
//
//snb:noalloc
func (r NodeRow) Node(i int) Node {
	n := Node{id: r.row[i].To, ord: -1, era: r.era} // an ord of -1 is never held
	if tail := r.row[len(r.row):cap(r.row)]; len(tail) > 0 {
		n.ord = ordAt(tail, i)
	}
	return n
}

// Into appends to buf[:0] one entry (x, stamp) per edge x -t-> n, the
// edges a read against the arrow walks: n's In row, and for knows the
// entries of n's Out row that are symmetric (mutual).
func Into[R Reader](r R, n Node, t EdgeType, buf []Edge) []Edge {
	buf = append(buf[:0], r.InOf(n, t)...)
	if t != EdgeKnows {
		return buf
	}
	out := r.OutOf(n, t)
	for i := range out {
		if mutual(r, n.ID(), t, out, i) {
			buf = append(buf, out[i])
		}
	}
	return buf
}

// IntoFrom reports whether some edge x -t-> n has a tail x that in holds:
// Into's test, with in asked first, so that an entry of n's Out row is
// checked for symmetry only when its neighbour is one the caller wants.
//
//snb:noalloc
func IntoFrom[R Reader](r R, n Node, t EdgeType, in func(ids.ID) bool) bool {
	for _, e := range r.InOf(n, t) {
		if in(e.To) {
			return true
		}
	}
	if t != EdgeKnows {
		return false
	}
	out := r.OutOf(n, t)
	for i, e := range out {
		if in(e.To) && mutual(r, n.ID(), t, out, i) {
			return true
		}
	}
	return false
}

// mutual reports whether entry i of out, n's Out row of type t, is also an
// edge into n: true for a symmetric edge, false for a directed n -> x one.
// The directed entries (x, stamp) of out are the ones x's In row lists as
// (n, stamp), so an entry is symmetric when fewer of them are listed there
// than out repeats it up to i. Only knows edges are written symmetric; on
// an SNB graph x's In row is empty and the answer is one row header away.
//
//snb:noalloc
func mutual[R Reader](r R, n ids.ID, t EdgeType, out []Edge, i int) bool {
	e := out[i]
	directed := 0
	for _, b := range r.InOf(ByID(e.To), t) {
		if b.To == n && b.Stamp == e.Stamp {
			directed++
		}
	}
	if directed == 0 {
		return true
	}
	for _, a := range out[:i] {
		if a == e {
			directed--
		}
	}
	return directed <= 0
}
