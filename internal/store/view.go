package store

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"ldbcsnb/internal/ids"
)

// SnapshotView is a frozen, read-optimised image of the store at one commit
// timestamp. Its bulk lives in a per-era viewBase: every shard's visible
// adjacency compacted into varint/delta-coded CSR rows in one shared byte
// slab (codec.go), and one property row per compact node ordinal. The
// compact layout is what lets thousand-person scale factors stay resident:
// a stored direction-entry costs a few bytes instead of a 16-byte Edge
// struct. Property rows are not copied at all: each ordinal points at the
// node record's immutable row (fixed-width 16-byte Props, strings as
// interned symbols, internal/intern), so a node's properties are stored
// once however many views see them.
//
// A view is frozen at construction: its own fields never change, and the
// overlay it shares with the rest of its era it reads at its own timestamp,
// whatever later refreshes store there. So every read is lock-free and
// steady-state allocation-free: Out and In return []Edge rows served from
// the per-csr decode cache (decoded out of the slab once, on first read)
// or from an overlay row, and Prop and Props return the
// shared, never-written property rows. This is the read path
// the Interactive workload's 2-3-hop knows expansions run on; MVCC
// transactions (Txn) remain the write path.
//
// # Incremental maintenance, eras and ordinal stability
//
// Views advance in two ways (see CurrentView):
//
//   - Delta refresh: a new view is derived from the cached one by applying
//     the write sets of the intervening commits (internal/store
//     delta.go). The refreshed view shares the predecessor's viewBase and
//     the era's overlay: ordinal-indexed page tables of commit-stamped row
//     headers, over adjacency rows (decoded from the slab into plain []Edge
//     rows on first touch in the era) that later refreshes append to in
//     place; new nodes receive ordinals appended after the existing ones,
//     their property rows appended beside them. Cost is proportional to the delta, neither to the
//     dataset nor to the overlay accumulated so far.
//   - Rebuild: the whole visible state is recompacted into a fresh
//     viewBase — node IDs sorted, ordinals reassigned densely, adjacency
//     re-encoded — and the view's era counter is bumped. The acquiring
//     reader runs it inline, for the first view and once the era's overlay
//     plus the backlog of commits since the cached view has passed the
//     compaction trigger, a fixed fraction of the base (the commit log
//     dropped the view's cursor; delta.go).
//
// Ordinals are dense indices 0..NumNodes()-1, private to the store: they
// index the base's slabs and the overlay's pages. Within one era they are
// stable: a delta refresh never reassigns an existing node's ordinal, it
// only appends new ones, so the refreshed view shares the base's slabs.
// Across eras ordinals are reassigned (ascending ID order again).
// Ordinals are only comparable between two views of the same era.
//
// Slices returned by view methods alias the view's internal arrays and
// must not be mutated by callers.
//
// Being frozen is also what makes a view the checkpointing unit: the
// durable checkpointer (checkpoint.go) serialises a SnapshotView to disk
// while commits and even an era bump proceed concurrently —
// the held view stays frozen no matter what the cached view does, so
// checkpoints never stop the write path.
type SnapshotView struct {
	ts   int64
	era  uint64
	base *viewBase

	// The overlay: what the era's refreshes up to ts added to the base,
	// empty on a freshly compacted view. It is shared, not copied: every
	// view of the era reads the same pages and row headers, and a refresh
	// only appends to the slices below beyond the predecessor's length and
	// stores new commit-stamped headers — see "The overlay" and
	// "Append-sharing" in delta.go for why neither disturbs a reader of an
	// older view.
	nodesOver []ids.ID  // ordinal len(base.nodes)+i -> appended node ID
	propsOver []Props   // ordinal len(base.nodes)+i -> its property row, nil for a bare endpoint
	ordOver   *ordTable // appended node ID -> index into nodesOver
	over      *overlay  // the era's page tables as this view was published with them; nil before the era's first refresh

	// byKind is per-view (not per-era): a refresh that creates nodes appends
	// to the touched kinds' lists and publishes the longer headers here.
	byKind [ids.KindLimit][]ids.ID
	// keys is, per kind, the set of property keys some node of byKind's
	// list carries: the build ORs in every node's row, a refresh the rows
	// of the nodes it creates (KindHasProp).
	keys [ids.KindLimit]keySet

	// cancel, when non-nil, makes Out/In/Prop poll a request context and
	// unwind past-deadline scans (cancel.go). Only views derived with
	// WithCancel carry one; the shared cached view never does, keeping the
	// common read path at a single nil check.
	cancel *cancelHook
}

// viewBase is the compacted, era-shared bulk of one or more snapshot views:
// the encoded CSR slabs, the property row of every ordinal and the ordinal
// mapping of every node visible when the era was compacted. The mapping is
// nodes, the ordinal -> ID list sorted by ID, plus ord, an ordDir over it:
// an ordinal is a position in nodes, and because nodes is sorted and never
// written again, a per-kind directory over its ID ranges finds a position
// with one directory read and a short scan of nodes, both in ID order — no
// hash scattering consecutive IDs. It is immutable after buildView returns;
// delta refreshes layer overlays on top without touching it.
type viewBase struct {
	nodes []ids.ID // ordinal -> node ID, ascending
	ord   ordDir   // node ID -> position in nodes, i.e. ordinal

	// props is ordinal -> property row: the node record's row, shared, not
	// copied. Sharing is safe because a stored row is never written: node
	// properties are fixed when the node becomes visible.
	props []Props

	slab    []byte // the shared adjacency byte slab every csr.data aliases
	out, in [edgeTypeMax]csr

	// spill holds any row the ordinal codec could not encode (a neighbour
	// without an ordinal — impossible for a consistent view, kept as a
	// correctness backstop rather than a panic on the build path).
	spill map[edgeKey][]Edge

	// entries is the number of adjacency direction-entries compacted into
	// the base, the size the overlay is measured against (compactTrigger).
	entries int
}

// The overlay's page tables: ordinals are dense, so a touched row is found
// by index, not by hashing. There is one table per rowKey(type, direction);
// a page covers overPageSize consecutive ordinals and holds a pointer to the
// current header of each. Pages are
// never copied: a refresh stores new headers into them in place, so the
// fan-out only sets how much of a page a sparse table leaves empty and how
// long the top levels are. Replaying one round of the Interactive mix on the
// 1000-person dataset (60 K nodes, 71 K overlay entries), fan-outs of 32, 64
// and 128 end with overlays of 11.4, 11.2 and 11.2 MiB and refresh equally
// fast; the largest keeps the top levels short on larger datasets.
const (
	overPageBits = 7
	overPageSize = 1 << overPageBits
)

type overPage [overPageSize]atomic.Pointer[rowHdr]

// overTable is the top level of one page table: page ordinal>>overPageBits,
// nil where no refresh of the era touched that range. It grows by copy; a
// view keeps the one it was published with, and pages created after a copy
// hold only state newer than every view that kept the old one.
type overTable []atomic.Pointer[overPage]

// overlay is the set of top levels one view was published with. A refresh
// that must grow or create a table publishes a copy of it; every other
// refresh hands the same one on.
type overlay struct {
	rows [2 * edgeTypeMax]overTable // indexed by rowKey
}

// rowHdr is one state of an overlay row, stored by the refresh at ts and
// never written after. edges is the base row (decoded from the slab when the
// era first touched the row) followed by the entries the era's commits
// appended; commits holds the commit timestamp of each appended entry, so
// len(edges)-len(commits) is the base part. Both arrays are append-shared:
// the next header of the row may extend them in place beyond this one's
// lengths.
type rowHdr struct {
	ts      int64
	edges   []Edge
	commits []int64 // ascending
}

// rowStart backs the first header of a row in its era, with room for the
// first two commit stamps and, for a row of at most one base entry, its
// first two entries: one allocation where a new node's row would take three.
type rowStart struct {
	hdr     rowHdr
	commits [2]int64
	edges   [2]Edge
}

func rowKey(t EdgeType, in bool) uint8 {
	k := uint8(t) << 1
	if in {
		k |= 1
	}
	return k
}

// load returns the current header of an ordinal, nil when no refresh of the
// era stored one: a bounds check and a nil check for an untouched page.
//
//snb:noalloc
func (t overTable) load(ord int32) *rowHdr {
	if i := int(ord) >> overPageBits; i < len(t) {
		if p := t[i].Load(); p != nil {
			return p[ord&(overPageSize-1)].Load()
		}
	}
	return nil
}

// at returns the row as a view frozen at ts sees it, capped at its length
// (later refreshes append into the spare capacity). A header stored at or
// before ts is the row's state at ts, as it is; one stored after ts keeps
// the base part and the entries committed by ts, which precede the others.
//
//snb:noalloc
func (h *rowHdr) at(ts int64) []Edge {
	if h.ts <= ts {
		return h.edges[:len(h.edges):len(h.edges)]
	}
	lo, hi := 0, len(h.commits)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); h.commits[mid] <= ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := len(h.edges) - len(h.commits) + lo
	return h.edges[:n:n]
}

// overHdr returns the era's current header of one (ordinal, type,
// direction) row, nil for a row the era has not touched, which the base
// still serves. v.over must be non-nil: callers test it first, so that a
// freshly compacted view pays one comparison for its overlay.
//
//snb:noalloc
func (v *SnapshotView) overHdr(ord int32, t EdgeType, in bool) *rowHdr {
	return v.over.rows[rowKey(t, in)].load(ord)
}

// ordDir maps the base's node IDs to their position in base.nodes. An ID's
// top byte is its kind and, within a kind, IDs are time-ordered
// (internal/ids), so in the ID-sorted nodes every kind is one run. For each
// kind the directory cuts the ID span [min, max] into equal buckets of
// 2^shift IDs and records, for every bucket b, dir[b]: the first position in
// nodes whose bucket is >= b. A lookup is a range check, one directory read
// and a scan of nodes[dir[b]:dir[b+1]]. Scans of a kind and walks over a
// time-ordered row resolve consecutive IDs, which read consecutive
// directory entries and nodes — a hash would scatter them across its
// slots.
type ordDir struct {
	kinds []dirKind // indexed by kind byte, up to the largest kind present
}

type dirKind struct {
	min, max ids.ID  // the kind's smallest and largest ID; min > max for a kind with no nodes
	shift    uint    // bucket of id: (id-min) >> shift
	dir      []int32 // dir[b]: first position in nodes whose bucket is >= b; one per bucket, then an end marker
}

// dirBucketsPerNode caps a kind's buckets at this many per node, which sets
// its shift (a power of two, so a kind gets between half this and this
// many). Messages arrive in bursts, so most buckets are empty and a busy
// one holds several nodes; more buckets mean shorter scans and a larger
// directory. Over a population of the 1000-person shape with its bursts
// (BenchmarkOrdLookup, 2-core Xeon, medians of 5), a random-order lookup
// takes 31 ns at 4 buckets a node, 25 at 8 and 20 at 16, an ID-order one
// 18, 15 and 13; an ordTable over the same nodes takes 33 and 23. End to end,
// 8 bought nothing over 4 (analytic throughput 1.41x the hash table's at
// both) and cost heap: the directory of the generated 1000-person base is
// 0.7 MiB at 4, 1.4 MiB at 8, against the hash table's 0.5.
const dirBucketsPerNode = 4

// dirScanMax is the longest bucket scanned linearly — a cache line of IDs.
// A longer one, where a skewed ID span crowds many nodes into one bucket,
// is binary-searched first, so no bucket costs O(n).
const dirScanMax = 8

// newOrdDir builds the directory in one pass over nodes, which must be
// sorted ascending.
func newOrdDir(nodes []ids.ID) ordDir {
	var d ordDir
	for lo := 0; lo < len(nodes); {
		kind := int(nodes[lo] >> 56)
		hi := lo + 1
		for hi < len(nodes) && int(nodes[hi]>>56) == kind {
			hi++
		}
		for len(d.kinds) <= kind {
			d.kinds = append(d.kinds, dirKind{min: 1}) // empty: matches no ID
		}
		k := dirKind{min: nodes[lo], max: nodes[hi-1]}
		span, limit := uint64(k.max-k.min), uint64(dirBucketsPerNode*(hi-lo))
		for span>>k.shift >= limit {
			k.shift++
		}
		k.dir = make([]int32, span>>k.shift+2)
		b := 0
		for pos := lo; pos < hi; pos++ {
			for last := int(uint64(nodes[pos]-k.min) >> k.shift); b <= last; b++ {
				k.dir[b] = int32(pos)
			}
		}
		for ; b < len(k.dir); b++ {
			k.dir[b] = int32(hi)
		}
		d.kinds[kind] = k
		lo = hi
	}
	return d
}

// lookup finds id in nodes, the list the directory was built over.
//
//snb:noalloc
func (d *ordDir) lookup(id ids.ID, nodes []ids.ID) (int, bool) {
	kind := int(id >> 56)
	if kind >= len(d.kinds) {
		return 0, false
	}
	k := &d.kinds[kind]
	if id < k.min || id > k.max {
		return 0, false
	}
	b := uint64(id-k.min) >> k.shift
	lo, hi := int(k.dir[b]), int(k.dir[b+1])
	for hi-lo > dirScanMax {
		// Keep the first position holding an ID >= id inside [lo, hi).
		if mid := int(uint(lo+hi) >> 1); nodes[mid] < id {
			lo = mid + 1
		} else {
			hi = mid + 1
		}
	}
	for ; lo < hi; lo++ {
		if nodes[lo] >= id {
			return lo, nodes[lo] == id
		}
	}
	return 0, false
}

// ordTable maps the overlay's appended node IDs to their position in
// SnapshotView.nodesOver: an insert-only open-addressed table that stores
// positions, not keys (the keys are the list itself), keyed by Fibonacci
// hash, probed linearly and kept at most half full. The base's sorted,
// immutable node list has ordDir; the appended list is neither sorted nor
// private to one view. One table serves every view of a lineage until it
// has to grow: the maintainer inserts with atomic stores, and a reader that
// meets a position at or beyond its own view's len(nodesOver) has met a node
// appended after its view — with linear probing and no deletions everything
// inserted earlier sits earlier in any probe sequence, so it can stop there.
type ordTable struct {
	slots []atomic.Int32 // position+1; 0 = empty; len is a power of two
	shift uint           // 64 - log2(len(slots))
	used  int            // maintainer only
}

// newOrdTable returns a table over nodes, filled in position order (which
// keeps older-before-newer in every probe sequence), with at least 64 slots
// and at most half of them used.
func newOrdTable(nodes []ids.ID) *ordTable {
	size := 64
	for size < 2*len(nodes) {
		size *= 2
	}
	t := &ordTable{slots: make([]atomic.Int32, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	for pos, id := range nodes {
		t.place(id, pos)
	}
	return t
}

// home is the Fibonacci hash of an ID: IDs of one kind differ in their
// middle (time) bits, which the multiplication spreads into the top ones.
func (t *ordTable) home(id ids.ID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> t.shift)
}

// lookup finds id among nodes, the looking view's nodesOver.
//
//snb:noalloc
func (t *ordTable) lookup(id ids.ID, nodes []ids.ID) (int, bool) {
	for h := t.home(id); ; h = (h + 1) & (len(t.slots) - 1) {
		pos := int(t.slots[h].Load()) - 1
		if pos < 0 || pos >= len(nodes) {
			return 0, false
		}
		if nodes[pos] == id {
			return pos, true
		}
	}
}

// insert records that nodes[len(nodes)-1] was just appended and returns the
// table to publish with it: t itself, or a new table of twice the size over
// all of nodes once t is half full. Views published earlier keep the table
// they were published with.
func (t *ordTable) insert(nodes []ids.ID) *ordTable {
	if t == nil || 2*(t.used+1) > len(t.slots) {
		return newOrdTable(nodes)
	}
	t.place(nodes[len(nodes)-1], len(nodes)-1)
	return t
}

func (t *ordTable) place(id ids.ID, pos int) {
	h := t.home(id)
	for t.slots[h].Load() != 0 {
		h = (h + 1) & (len(t.slots) - 1)
	}
	t.slots[h].Store(int32(pos + 1))
	t.used++
}

// edgeKey identifies one spill row: ordinal, edge type and direction packed
// into one map key.
type edgeKey uint64

func makeEdgeKey(ord int32, t EdgeType, in bool) edgeKey {
	k := edgeKey(uint32(ord))<<6 | edgeKey(t)<<1
	if in {
		k |= 1
	}
	return k
}

// Timestamp returns the commit timestamp the view is frozen at.
func (v *SnapshotView) Timestamp() int64 { return v.ts }

// Era identifies the view's compaction lineage. Views of the same era share
// one ordinal assignment (delta refreshes append, never reassign); a full
// rebuild starts a new era and reassigns ordinals. Eras are drawn from one
// counter for the whole process (viewEras), so two stores never share one:
// a Node of another store's view carries an era no view of this store has,
// and is read by ID.
func (v *SnapshotView) Era() uint64 { return v.era }

// viewEras numbers every view build in the process. A Node keeps the low
// 32 bits of its era, so it could be taken for a Node of another lineage
// only after 2^32 builds.
var viewEras atomic.Uint64

// keySet is a set of property keys, one bit per key; the keys from 63 up
// share the top bit, so the set may name a key no node carries, never the
// reverse.
type keySet uint64

func keyBit(k PropKey) keySet { return 1 << min(k, 63) }

// add ORs in the keys of one property row.
func (s *keySet) add(ps Props) {
	for _, p := range ps {
		*s |= keyBit(p.Key)
	}
}

// KindHasProp reports whether some node of the kind that the view lists
// (NodesOfKind) may carry the property key: false means none does, so a
// kind scan for a node with a given value of key can skip the kind. It is
// the view's alone: a Txn keeps no such set.
//
//snb:noalloc
func (v *SnapshotView) KindHasProp(kind ids.Kind, key PropKey) bool {
	return kind < ids.KindLimit && v.keys[kind]&keyBit(key) != 0
}

// NumNodes returns the number of visible nodes; ordinals range over
// [0, NumNodes()).
func (v *SnapshotView) NumNodes() int { return len(v.base.nodes) + len(v.nodesOver) }

// ord returns the compact ordinal of a node, or false if the node is not
// visible in the view: a lookup in the base's directory, then a probe of the
// overlay's table. An ID appended after the base was compacted is newer than
// its kind's base max, so it leaves the directory after two compares. Every
// view read by ID (Out, In, Prop, the degrees) pays one; a read of a Node
// resolved in the view's era pays none.
//
//snb:noalloc
func (v *SnapshotView) ord(id ids.ID) (int32, bool) {
	if pos, ok := v.base.ord.lookup(id, v.base.nodes); ok {
		return int32(pos), true
	}
	if v.ordOver != nil {
		if pos, ok := v.ordOver.lookup(id, v.nodesOver); ok {
			return int32(len(v.base.nodes) + pos), true
		}
	}
	return 0, false
}

// idAt returns the node ID of an ordinal.
func (v *SnapshotView) idAt(ord int32) ids.ID {
	if n := int32(len(v.base.nodes)); ord >= n {
		return v.nodesOver[ord-n]
	}
	return v.base.nodes[ord]
}

// Exists reports whether a node is visible in the view.
func (v *SnapshotView) Exists(id ids.ID) bool {
	_, ok := v.ord(id)
	return ok
}

// edgesAt returns one (ordinal, type, direction) row: the overlay row when
// the era touched it, the decode-cached slab row otherwise.
//
//snb:noalloc
func (v *SnapshotView) edgesAt(ord int32, t EdgeType, in bool) []Edge {
	if v.over != nil {
		if h := v.overHdr(ord, t, in); h != nil {
			return h.at(v.ts)
		}
	}
	b := v.base
	if b.spill != nil {
		if row, ok := b.spill[makeEdgeKey(ord, t, in)]; ok {
			return row
		}
	}
	if in {
		return b.in[t].rowAt(ord, b.nodes)
	}
	return b.out[t].rowAt(ord, b.nodes)
}

// nodesAt is edgesAt as a NodeRow: a base row carries its neighbours'
// ordinals and the view's era; an overlay or spill row yields unresolved
// Nodes.
//
//snb:noalloc
func (v *SnapshotView) nodesAt(ord int32, t EdgeType, in bool) NodeRow {
	if v.over != nil {
		if h := v.overHdr(ord, t, in); h != nil {
			return idRow(h.at(v.ts))
		}
	}
	b := v.base
	if b.spill != nil {
		if row, ok := b.spill[makeEdgeKey(ord, t, in)]; ok {
			return idRow(row)
		}
	}
	c := &b.out[t]
	if in {
		c = &b.in[t]
	}
	return NodeRow{row: c.rowNodesAt(ord, b.nodes), era: uint32(v.era)}
}

// appendEdges appends one (ordinal, type, direction) row onto dst without
// touching the decode cache: the row-materialisation path for full-store
// walks (checkpoint serialisation) that must not inflate the cache.
func (v *SnapshotView) appendEdges(dst []Edge, ord int32, t EdgeType, in bool) []Edge {
	if v.over != nil {
		if h := v.overHdr(ord, t, in); h != nil {
			return append(dst, h.at(v.ts)...)
		}
	}
	b := v.base
	if b.spill != nil {
		if row, ok := b.spill[makeEdgeKey(ord, t, in)]; ok {
			return append(dst, row...)
		}
	}
	if in {
		return b.in[t].appendRow(dst, ord, b.nodes)
	}
	return b.out[t].appendRow(dst, ord, b.nodes)
}

// Resolve returns the handle of a node: its ordinal in the view's era, or
// an unresolved handle when the view does not see it (Reader, "Nodes").
//
//snb:noalloc
func (v *SnapshotView) Resolve(id ids.ID) Node {
	o, ok := v.ord(id)
	if !ok {
		o = -1
	}
	return Node{id: id, ord: o, era: uint32(v.era)}
}

// holds reports whether n carries an ordinal the view can use as it is:
// one resolved in the view's era (an unresolved -1 never passes) and below
// its NumNodes. A Node read uses n.ord when it does and looks n's ID up
// otherwise. The lookup is spelled out in each read rather than wrapped
// with the check in one function, so that the check inlines: a call per
// read cost BI1, BI3, BI4 and BI5 7-13 % at 1000 persons (2-core Xeon).
func (v *SnapshotView) holds(n Node) bool {
	return n.era == uint32(v.era) && int(uint32(n.ord)) < v.NumNodes()
}

// ScanKind returns the scan of a kind's visible nodes: NodesOfKind's list
// and the kind's run of the base's ordinals, which the list's base nodes
// match position for position when they were created in ID order.
//
//snb:noalloc
func (v *SnapshotView) ScanKind(kind ids.Kind) KindScan {
	s := KindScan{nodes: v.NodesOfKind(kind), era: uint32(v.era)}
	if d := &v.base.ord; int(kind) < len(d.kinds) {
		if k := &d.kinds[kind]; len(k.dir) > 0 {
			lo, hi := k.dir[0], k.dir[len(k.dir)-1]
			s.base, s.off = v.base.nodes[lo:hi], lo
		}
	}
	return s
}

// Out returns the visible outgoing edges of a node for one edge type, in
// insertion order. The slice aliases the view's decode cache (or an
// overlay row): lock-free, allocation-free once the row is hot, and the
// caller must not mutate it.
//
//snb:noalloc
func (v *SnapshotView) Out(id ids.ID, t EdgeType) []Edge {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := v.ord(id)
	if !ok {
		return nil
	}
	return v.edgesAt(o, t, false)
}

// OutOf is Out of a resolved node.
//
//snb:noalloc
func (v *SnapshotView) OutOf(n Node, t EdgeType) []Edge {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := n.ord, v.holds(n)
	if !ok {
		o, ok = v.ord(n.id)
	}
	if !ok {
		return nil
	}
	return v.edgesAt(o, t, false)
}

// In returns the visible incoming edges of a node for one edge type.
//
//snb:noalloc
func (v *SnapshotView) In(id ids.ID, t EdgeType) []Edge {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := v.ord(id)
	if !ok {
		return nil
	}
	return v.edgesAt(o, t, true)
}

// InOf is In of a resolved node.
//
//snb:noalloc
func (v *SnapshotView) InOf(n Node, t EdgeType) []Edge {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := n.ord, v.holds(n)
	if !ok {
		o, ok = v.ord(n.id)
	}
	if !ok {
		return nil
	}
	return v.edgesAt(o, t, true)
}

// OutNodes is OutOf as a NodeRow, whose Nodes a base row hands over
// resolved.
//
//snb:noalloc
func (v *SnapshotView) OutNodes(n Node, t EdgeType) NodeRow {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := n.ord, v.holds(n)
	if !ok {
		o, ok = v.ord(n.id)
	}
	if !ok {
		return NodeRow{}
	}
	return v.nodesAt(o, t, false)
}

// InNodes is InOf as a NodeRow.
//
//snb:noalloc
func (v *SnapshotView) InNodes(n Node, t EdgeType) NodeRow {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := n.ord, v.holds(n)
	if !ok {
		o, ok = v.ord(n.id)
	}
	if !ok {
		return NodeRow{}
	}
	return v.nodesAt(o, t, true)
}

// degree returns the row's entry count without decoding it (one uvarint
// read for slab rows).
func (v *SnapshotView) degree(id ids.ID, t EdgeType, in bool) int {
	o, ok := v.ord(id)
	if !ok {
		return 0
	}
	return v.degreeAt(o, t, in)
}

// degreeOf is degree of a resolved node.
//
//snb:noalloc
func (v *SnapshotView) degreeOf(n Node, t EdgeType, in bool) int {
	o, ok := n.ord, v.holds(n)
	if !ok {
		o, ok = v.ord(n.id)
	}
	if !ok {
		return 0
	}
	return v.degreeAt(o, t, in)
}

//snb:noalloc
func (v *SnapshotView) degreeAt(o int32, t EdgeType, in bool) int {
	if v.over != nil {
		if h := v.overHdr(o, t, in); h != nil {
			return len(h.at(v.ts))
		}
	}
	b := v.base
	if b.spill != nil {
		if row, ok := b.spill[makeEdgeKey(o, t, in)]; ok {
			return len(row)
		}
	}
	if in {
		return b.in[t].degreeAt(o)
	}
	return b.out[t].degreeAt(o)
}

// OutDegree returns the number of visible outgoing edges of a node.
func (v *SnapshotView) OutDegree(id ids.ID, t EdgeType) int { return v.degree(id, t, false) }

// OutDegreeOf is OutDegree of a resolved node.
//
//snb:noalloc
func (v *SnapshotView) OutDegreeOf(n Node, t EdgeType) int { return v.degreeOf(n, t, false) }

// InDegree returns the number of visible incoming edges of a node.
func (v *SnapshotView) InDegree(id ids.ID, t EdgeType) int { return v.degree(id, t, true) }

// InDegreeOf is InDegree of a resolved node.
//
//snb:noalloc
func (v *SnapshotView) InDegreeOf(n Node, t EdgeType) int { return v.degreeOf(n, t, true) }

// propsAt returns the property list of a visible ordinal.
func (v *SnapshotView) propsAt(ord int32) Props {
	if n := int32(len(v.base.props)); ord >= n {
		return v.propsOver[ord-n]
	}
	return v.base.props[ord]
}

// Prop returns one property of a node (zero Value if the node or property
// is absent).
//
//snb:noalloc
func (v *SnapshotView) Prop(id ids.ID, key PropKey) Value {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := v.ord(id)
	if !ok {
		return Value{}
	}
	return v.propsAt(o).Get(key)
}

// PropOf is Prop of a resolved node.
//
//snb:noalloc
func (v *SnapshotView) PropOf(n Node, key PropKey) Value {
	if v.cancel != nil {
		v.cancel.tick()
	}
	o, ok := n.ord, v.holds(n)
	if !ok {
		o, ok = v.ord(n.id)
	}
	if !ok {
		return Value{}
	}
	return v.propsAt(o).Get(key)
}

// Props returns the visible property list of a node. The slice is the
// stored row the node record and every view that sees it share, and must
// not be mutated.
func (v *SnapshotView) Props(id ids.ID) (Props, bool) {
	o, ok := v.ord(id)
	if !ok {
		return nil, false
	}
	return v.propsAt(o), true
}

// NodesOfKind returns the IDs of all visible nodes of a kind in insertion
// order. The slice is shared by all callers of the view and must not be
// mutated.
//
//snb:noalloc
func (v *SnapshotView) NodesOfKind(kind ids.Kind) []ids.ID {
	if kind >= ids.KindLimit {
		return nil
	}
	return v.byKind[kind]
}

// NumOfKind returns the number of visible nodes of a kind: the
// cardinality the query planner orders its scans by.
func (v *SnapshotView) NumOfKind(kind ids.Kind) int { return len(v.NodesOfKind(kind)) }

// ViewEvent reports how an AcquireView call obtained its view.
type ViewEvent uint8

const (
	// ViewHit means the cached view already matched the commit watermark
	// (or another reader advanced it first): a pointer load.
	ViewHit ViewEvent = iota
	// ViewRefreshed means the call advanced the cached view by applying
	// pending commit deltas — cost proportional to the delta.
	ViewRefreshed
	// ViewRebuilt means the call itself paid a full recompaction — no view
	// existed yet, or the era's overlay plus the commits since the cached
	// view passed the compaction trigger (ViewStatsSnapshot.Overflows).
	// Rebuilds that replace a cached view bump the era.
	ViewRebuilt
)

// String names the event for reports.
func (e ViewEvent) String() string {
	switch e {
	case ViewHit:
		return "hit"
	case ViewRefreshed:
		return "refresh"
	case ViewRebuilt:
		return "rebuild"
	}
	return "unknown"
}

// CurrentView returns a frozen snapshot view at the store's current commit
// watermark. Views are cached behind an atomic pointer and invalidated by
// the commit clock (every committed write bumps it, acting as the view
// epoch): concurrent readers at the same epoch share one view with no
// locking on the read path.
//
// The first reader after a commit advances the view in one of two ways.
// It refreshes it when it can: the commits since the cached view are
// applied onto it (cost proportional to the delta — see delta.go), keeping
// existing ordinals stable within the era. It rebuilds it inline — the
// O(visible nodes + edges) recompaction that folds the overlay back into a
// flat base, a new era — when no cached view exists or the era's overlay
// plus the commits since the cached view has passed the compaction trigger.
// So the reader that crosses the trigger pays the rebuild.
func (s *Store) CurrentView() *SnapshotView {
	v, _ := s.AcquireView()
	return v
}

// AcquireView is CurrentView plus the maintenance event the call performed
// (hit, delta refresh or full rebuild), letting callers attribute the
// acquisition latency they just paid. The view it returns is frozen at the
// commit clock the call observed, so a caller always reads its own earlier
// commits. Store-wide totals are available from ViewStats.
func (s *Store) AcquireView() (*SnapshotView, ViewEvent) {
	ts := s.clock.Load()
	if v := s.view.Load(); v != nil && v.ts == ts {
		return v, ViewHit
	}
	// Serialise maintenance so a commit burst doesn't build the same view N
	// times; double-check under the lock.
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	ts = s.clock.Load()
	old := s.view.Load()
	if old != nil && old.ts == ts {
		return old, ViewHit
	}
	if old != nil {
		if nv, ok := s.refreshView(old, ts); ok {
			s.view.Store(nv)
			s.viewRefreshes.Add(1)
			return nv, ViewRefreshed
		}
	}
	// Rebuild. Registering the view's cursor in the commit log and reading
	// the clock under one commitMu hold puts every commit either at or below
	// ts (in the build) or in the log for the next refresh. Lock order is
	// viewMu -> commitMu; no path takes viewMu while holding commitMu.
	s.commitMu.Lock()
	ts = s.clock.Load()
	s.log.moveView(ts, true)
	s.commitMu.Unlock()
	return s.rebuild(ts, old), ViewRebuilt
}

// rebuild builds the view at ts, for which the caller has registered the
// view's cursor in the commit log, and caches it in place of old.
//
//snb:locked viewMu
func (s *Store) rebuild(ts int64, old *SnapshotView) *SnapshotView {
	nv := s.buildView(ts)
	s.view.Store(nv)
	s.viewRebuilds.Add(1)
	if old != nil {
		s.viewEraBumps.Add(1)
	}
	return nv
}

// AcquireViewChecked is AcquireView with a liveness check: once the store
// is closed (MarkClosed / Persistent.Close) it returns ErrStoreClosed
// instead of a view. Serving layers use it so requests racing a shutdown
// get a clean sentinel rather than a snapshot of a store whose durability
// pipeline is already gone. The check is advisory for reads — an already
// acquired view stays valid forever — so a Close landing between the check
// and the query is harmless.
func (s *Store) AcquireViewChecked() (*SnapshotView, ViewEvent, error) {
	if s.closed.Load() {
		return nil, ViewHit, ErrStoreClosed
	}
	v, ev := s.AcquireView()
	return v, ev, nil
}

// ViewAt builds a fresh, uncached view frozen at an explicit timestamp.
// It exists for tests and offline analysis (e.g. comparing a view against
// a Txn at the same snapshot); the serving path is CurrentView. Each call
// compacts from scratch and starts its own era (its ordinals are not
// comparable with any other view's).
func (s *Store) ViewAt(ts int64) *SnapshotView {
	return s.buildView(ts)
}

// buildView compacts the store's state visible at ts into a SnapshotView
// with a fresh viewBase and era. It takes each shard's read lock once per
// pass (never the commit lock), so it can run concurrently with commits;
// the visibility filter commit <= ts makes the result independent of any
// in-flight installs.
//
// Compaction runs in three phases: the two shard-grouped passes of the
// PR 1 layout gather the visible edges into transient uncompressed slabs
// (exact-sized, lock-friendly) and point each ordinal at its visible
// property row, and a lock-free encode pass then delta/varint-codes each
// adjacency row into the shared byte slab, after which the transient slabs
// are dropped. The build briefly holds both layouts; the resident result is
// only the compact one.
func (s *Store) buildView(ts int64) *SnapshotView {
	b := &viewBase{}
	v := &SnapshotView{ts: ts, era: viewEras.Add(1), base: b}

	// Collect visible node IDs from every shard.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, rec := range sh.nodes {
			if rec.commit <= ts {
				b.nodes = append(b.nodes, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(b.nodes, func(i, j int) bool { return b.nodes[i] < b.nodes[j] })

	n := len(b.nodes)
	b.ord = newOrdDir(b.nodes)

	// Group ordinals by owning shard so each pass locks every shard once
	// instead of paying two lock round-trips per node.
	var ordsByShard [shardCount][]int32
	for i, id := range b.nodes {
		ordsByShard[shardIndex(id)] = append(ordsByShard[shardIndex(id)], int32(i))
	}

	// Transient uncompressed layout, dropped after the encode pass.
	type rawCSR struct {
		offsets []int32
		edges   []Edge
	}
	var raw [2 * edgeTypeMax]rawCSR // indexed by rowKey
	b.props = make([]Props, n)

	// Pass 1: per-node visible edge counts into the (future) offset
	// arrays, plus the property rows. Offsets are allocated for every edge
	// type up front and dropped again for types that turn out empty. Both
	// passes walk the rows a node has, not the thirty it could have.
	for k := rowKey(1, false); int(k) < len(raw); k++ {
		raw[k].offsets = make([]int32, n+1)
	}
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, ord := range ordsByShard[si] {
			id := b.nodes[ord]
			rec := sh.nodes[id]
			b.props[ord] = rec.props
			if k := id.Kind(); k < ids.KindLimit {
				v.keys[k].add(rec.props)
			}
			for _, r := range rec.adj.rows {
				raw[r.key].offsets[ord+1] = int32(countVisible(r.list, ts))
			}
		}
		sh.mu.RUnlock()
	}
	// Prefix-sum the counts into offsets and size the slabs; empty types
	// lose their offset array entirely.
	finishRaw := func(c *rawCSR) {
		for i := 1; i <= n; i++ {
			c.offsets[i] += c.offsets[i-1]
		}
		if total := c.offsets[n]; total > 0 {
			c.edges = make([]Edge, total)
		} else {
			c.offsets = nil
		}
	}
	for k := rowKey(1, false); int(k) < len(raw); k++ {
		finishRaw(&raw[k])
	}

	// Pass 2: fill the transient slabs by offset position — order-
	// independent, so it can also run shard-grouped; within one node each
	// adjacency list keeps its insertion order (the order Txn.Out reports).
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, ord := range ordsByShard[si] {
			rec := sh.nodes[b.nodes[ord]]
			for _, r := range rec.adj.rows {
				if c := &raw[r.key]; c.offsets != nil {
					fillVisible(c.edges[c.offsets[ord]:c.offsets[ord+1]], r.list, ts)
				}
			}
		}
		sh.mu.RUnlock()
	}

	// Encode pass (no locks): delta/varint-code every row into one shared
	// byte slab, trimming each type/direction's offset index to the ordinal
	// range that has edges at all (ID-sorted ordinals group nodes by kind,
	// so a relation touching one kind pays offsets only across that kind's
	// range). csr.data stays nil until the slab stops growing — appends may
	// reallocate it — and is patched to its subslice at the end.
	type slabRange struct{ start, end int }
	var ranges [2][edgeTypeMax]slabRange
	var slab []byte
	encode := func(raw *rawCSR, c *csr, t EdgeType, dir int) {
		if raw.offsets == nil {
			return
		}
		lo, hi := int32(-1), int32(-1) // first/last ordinal with a non-empty row
		for o := 0; o < n; o++ {
			if raw.offsets[o+1] > raw.offsets[o] {
				if lo < 0 {
					lo = int32(o)
				}
				hi = int32(o)
			}
		}
		if lo < 0 {
			return
		}
		c.lo = lo
		c.offsets = make([]uint32, int(hi-lo)+2)
		ranges[dir][t].start = len(slab)
		base := len(slab)
		for o := lo; o <= hi; o++ {
			c.offsets[o-lo] = uint32(len(slab) - base)
			row := raw.edges[raw.offsets[o]:raw.offsets[o+1]]
			if len(row) == 0 {
				continue
			}
			next, ok := appendAdjRow(slab, row, &b.ord, b.nodes)
			if !ok {
				// A neighbour without an ordinal: keep the raw row.
				if b.spill == nil {
					b.spill = make(map[edgeKey][]Edge)
				}
				b.spill[makeEdgeKey(o, t, dir == 1)] = append([]Edge(nil), row...)
				continue
			}
			slab = next
			c.entries += len(row)
		}
		c.offsets[hi-lo+1] = uint32(len(slab) - base)
		ranges[dir][t].end = len(slab)
		if c.entries > 0 {
			// Decode-cache header only; the per-row table inside is
			// allocated lazily, on the first long-row read.
			c.dec = &decCache{}
		}
	}
	for t := EdgeType(1); t < edgeTypeMax; t++ {
		encode(&raw[rowKey(t, false)], &b.out[t], t, 0)
		encode(&raw[rowKey(t, true)], &b.in[t], t, 1)
	}
	b.slab = slab
	for t := EdgeType(1); t < edgeTypeMax; t++ {
		if b.out[t].offsets != nil {
			r := ranges[0][t]
			b.out[t].data = slab[r.start:r.end]
		}
		if b.in[t].offsets != nil {
			r := ranges[1][t]
			b.in[t].data = slab[r.start:r.end]
		}
		b.entries += b.out[t].entries + b.in[t].entries
	}

	// Per-kind scan lists, matching Txn.NodesOfKind's visible-prefix
	// semantics over the commit-ordered kind lists.
	for k := range v.byKind {
		v.byKind[k] = s.nodesOfKind(ids.Kind(k), ts)
	}
	return v
}

func countVisible(list []edgeRec, ts int64) int {
	n := 0
	for i := range list {
		if list[i].visibleAt(ts) {
			n++
		}
	}
	return n
}

// fillVisible writes the visible edges of one adjacency list into its
// transient slab slice (whose length pass 1 sized to the exact visible
// count).
func fillVisible(dst []Edge, list []edgeRec, ts int64) {
	j := 0
	for i := range list {
		if e := &list[i]; e.visibleAt(ts) {
			dst[j] = Edge{To: e.peer, Stamp: e.stamp}
			j++
		}
	}
}
