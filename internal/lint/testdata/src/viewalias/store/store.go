// Package store is a fixture stand-in for ldbcsnb/internal/store: the
// viewalias analyzer keys on methods named Out/OutOf/InOf/PropsOf/IDs/
// Edges declared in a package named "store".
package store

// NodeID is a node identifier.
type NodeID uint64

// Edge is one adjacency entry.
type Edge struct {
	Dst   NodeID
	Stamp int64
}

// SnapshotView mimics the real read surface.
type SnapshotView struct{}

// Out is OutOf(ByID(id)). The slice aliases shared view memory and must
// not be mutated.
func (v *SnapshotView) Out(id NodeID) []Edge { return nil }

// Node is a node handle.
type Node struct{ id NodeID }

// ByID returns the handle of a node read once.
func ByID(id NodeID) Node { return Node{id: id} }

// OutOf returns the outgoing adjacency of n. The slice aliases shared
// view memory and must not be mutated.
func (v *SnapshotView) OutOf(n Node) []Edge { return nil }

// InOf returns the incoming adjacency of n.
func (v *SnapshotView) InOf(n Node) []Edge { return nil }

// PropsOf returns the property row of n.
func (v *SnapshotView) PropsOf(n Node) ([]string, bool) { return nil, false }

// KindScan is one kind's node list, yielding each as a Node.
type KindScan struct{ nodes []NodeID }

// ScanKind returns the scan of one node kind.
func (v *SnapshotView) ScanKind(kind int) KindScan { return KindScan{} }

// IDs returns the scanned ids; the slice is the view's kind list.
func (s KindScan) IDs() []NodeID { return s.nodes }

// At returns the i-th scanned node.
func (s KindScan) At(i int) Node { return Node{id: s.nodes[i]} }

// NodeRow is one row read for a hop.
type NodeRow struct{ row []Edge }

// OutNodes is OutOf as a NodeRow.
func (v *SnapshotView) OutNodes(n Node) NodeRow { return NodeRow{} }

// Edges returns the row's entries; the slice aliases shared view memory.
func (r NodeRow) Edges() []Edge { return r.row }

// Node returns entry i's neighbour.
func (r NodeRow) Node(i int) Node { return Node{id: r.row[i].Dst} }
