package store

import (
	"fmt"

	"ldbcsnb/internal/ids"
)

// EdgeType identifies one of the SNB schema's relations.
type EdgeType uint8

// SNB relations. Directions follow the schema: Knows is symmetric and
// stored in both directions; all others are stored as directed edges with
// reverse adjacency maintained automatically.
const (
	EdgeKnows        EdgeType = iota + 1 // Person  -> Person   (creationDate stamp)
	EdgeHasCreator                       // Message -> Person
	EdgeContainerOf                      // Forum   -> Post
	EdgeReplyOf                          // Comment -> Message
	EdgeLikes                            // Person  -> Message  (creationDate stamp)
	EdgeHasMember                        // Forum   -> Person   (joinDate stamp)
	EdgeHasModerator                     // Forum   -> Person
	EdgeHasTag                           // Message/Forum -> Tag
	EdgeHasInterest                      // Person  -> Tag
	EdgeIsLocatedIn                      // Person/Message/Org -> Place
	EdgeIsPartOf                         // Place   -> Place
	EdgeStudyAt                          // Person  -> Organisation (classYear stamp)
	EdgeWorkAt                           // Person  -> Organisation (workFrom stamp)
	EdgeHasType                          // Tag     -> TagClass
	EdgeIsSubclassOf                     // TagClass-> TagClass

	edgeTypeMax
)

var edgeNames = [edgeTypeMax]string{
	EdgeKnows: "knows", EdgeHasCreator: "hasCreator", EdgeContainerOf: "containerOf",
	EdgeReplyOf: "replyOf", EdgeLikes: "likes", EdgeHasMember: "hasMember",
	EdgeHasModerator: "hasModerator", EdgeHasTag: "hasTag", EdgeHasInterest: "hasInterest",
	EdgeIsLocatedIn: "isLocatedIn", EdgeIsPartOf: "isPartOf", EdgeStudyAt: "studyAt",
	EdgeWorkAt: "workAt", EdgeHasType: "hasType", EdgeIsSubclassOf: "isSubclassOf",
}

// String returns the schema name of the edge type.
func (t EdgeType) String() string {
	if int(t) < len(edgeNames) && edgeNames[t] != "" {
		return edgeNames[t]
	}
	return fmt.Sprintf("edge(%d)", uint8(t))
}

// Edge is one adjacency entry as seen by queries: the peer node and the
// edge's timestamp-like attribute (creationDate for knows/likes, joinDate
// for hasMember, classYear for studyAt, workFrom for workAt; 0 otherwise).
type Edge struct {
	To    ids.ID
	Stamp int64
}

// edgeRec is the stored adjacency entry: Edge plus the commit timestamp
// that makes it visible, 24 bytes (TestNodeRecLayout). Edges are
// insert-only — the update stream never deletes one — so an entry, once
// installed, is visible to every snapshot at or after its commit.
type edgeRec struct {
	peer   ids.ID
	stamp  int64
	commit int64
}

// visibleAt reports whether the edge is visible to a snapshot at ts.
func (e *edgeRec) visibleAt(ts int64) bool {
	return e.commit <= ts
}

// adjacency holds the typed in/out edge lists of one node as a sparse row
// table: one adjRow per (type, direction) the node has had an edge on —
// about five of thirty — keyed by rowKey like the view overlay's page
// tables, so both sides of the store describe a node's adjacency one way. Lists are
// append-ordered; commit timestamps gate visibility. Rows are in creation
// order and never removed.
type adjacency struct {
	rows []adjRow
}

type adjRow struct {
	key  uint8 // rowKey(type, direction)
	list []edgeRec
}

func (r *adjRow) edgeType() EdgeType { return EdgeType(r.key >> 1) }
func (r *adjRow) in() bool           { return r.key&1 != 0 }

// minRows is a row table's first capacity. Every message has creator,
// location, container-or-parent and tag rows: at 1000 persons 93 % of nodes
// reach four; the rest waste 115 KB, for three reallocations saved per node.
const minRows = 4

// find returns the row with the given key, or nil: a scan of ~5 one-byte keys.
func (a *adjacency) find(key uint8) *adjRow {
	for i := range a.rows {
		if a.rows[i].key == key {
			return &a.rows[i]
		}
	}
	return nil
}

// get returns the node's list for one (type, direction), or nil.
func (a *adjacency) get(t EdgeType, in bool) []edgeRec {
	if r := a.find(rowKey(t, in)); r != nil {
		return r.list
	}
	return nil
}

// ref returns the list header for one (type, direction) for writing,
// creating the row on a miss. The pointer dies at the next ref on the same
// node — a new row may move the table — so never hold two. A node gains a
// row at most thirty times in its life, so past minRows the table grows
// exact-fit, not by doubling (7 MB against 9.8 MB for 60 K nodes).
func (a *adjacency) ref(t EdgeType, in bool) *[]edgeRec {
	key := rowKey(t, in)
	if r := a.find(key); r != nil {
		return &r.list
	}
	n := len(a.rows)
	if n == cap(a.rows) {
		a.rows = append(make([]adjRow, 0, max(n+1, minRows)), a.rows...)
	}
	a.rows = append(a.rows, adjRow{key: key})
	return &a.rows[n].list
}

// nodeRec is one stored node, 64 bytes (TestNodeRecLayout): the commit that
// made it visible, its property list and its adjacency. Node properties are
// write-once — the update stream (U1–U8) only inserts — so a node has no
// version chain: a CreateNode commits props, a bare endpoint record
// (installEdge) commits none, and a second CreateNode of the ID fails with
// ErrExists. The owning shard's lock guards adj; id, commit and props are
// never written after the record is stored.
type nodeRec struct {
	id     ids.ID
	commit int64
	props  Props
	adj    adjacency
}
