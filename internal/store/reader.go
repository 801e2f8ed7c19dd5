package store

import "ldbcsnb/internal/ids"

// Reader is the uniform read surface of the store. Every read-only query in
// internal/workload is written exactly once against this contract and runs
// on either of the two read paths:
//
//   - *Txn — MVCC snapshot filtering under shard read locks; a write
//     transaction reads its snapshot, not its own buffered writes;
//   - *SnapshotView — a frozen compact CSR image of one commit epoch,
//     lock-free and steady-state allocation-free (Out/In serve rows out of
//     the view's decode cache over the varint/delta slab).
//
// Queries take a type parameter constrained by Reader
// (func Q9[R Reader](r R, ...)) rather than the interface itself, so the
// concrete read path is fixed at each call site. Per-traversal state
// (visited sets, path distances) lives outside the reader, in
// workload.Scratch, keyed by node ID, so these eight methods are the whole
// contract between the store and the query layers.
//
// Slices returned by Out, In and NodesOfKind (and Props on the view path)
// alias reader-owned memory and must not be mutated by callers.
type Reader interface {
	// Exists reports whether a node is visible to the reader.
	Exists(id ids.ID) bool
	// Prop returns one property of a node (zero Value if the node or
	// property is absent).
	Prop(id ids.ID, key PropKey) Value
	// Props returns the visible property list of a node.
	Props(id ids.ID) (Props, bool)
	// Out returns the visible outgoing edges of one type, in insertion
	// order.
	Out(id ids.ID, t EdgeType) []Edge
	// In returns the visible incoming edges of one type.
	In(id ids.ID, t EdgeType) []Edge
	// OutDegree returns len(Out(id, t)) without materialising the edges:
	// the Txn path counts in place, the view path reads the row header.
	OutDegree(id ids.ID, t EdgeType) int
	// InDegree returns len(In(id, t)) without materialising the edges.
	InDegree(id ids.ID, t EdgeType) int
	// NodesOfKind returns the visible nodes of a kind in insertion order.
	NodesOfKind(kind ids.Kind) []ids.ID
}

var (
	_ Reader = (*Txn)(nil)
	_ Reader = (*SnapshotView)(nil)
)
