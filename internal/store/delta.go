package store

import (
	"sync/atomic"

	"ldbcsnb/internal/ids"
)

// Incremental snapshot-view maintenance.
//
// Every committed transaction appends its write set, one CommitDelta — the
// nodes it created and the edges it inserted, its own buffers handed on — to
// the commit log (commitlog.go), which keeps it while the cached view's
// cursor is behind it. When AcquireView finds the cached view behind the
// commit watermark it applies the commits since the view (applyDeltas),
// deriving what install did with each write set, instead of recompacting
// the whole dataset. The refreshed view is a new immutable value that shares
// its predecessor's base and the era's overlay: a refresh costs what its
// deltas cost, whatever the size of the dataset or of the overlay
// accumulated in the era.
//
// # The overlay
//
// The overlay (view.go) belongs to the era, not to a view: page tables
// indexed by ordinal, one per rowKey(type, direction), whose pages hold
// atomic pointers to immutable row headers. Every view of the era reads the
// same pages. A refresh appends the new entries to the touched rows and then
// stores one new header per touched row, stamped with the refresh's
// timestamp; a row header carries, besides the row, the commit timestamp of
// every entry the era appended to it. Nothing is copied but a top level that
// must grow, and a view keeps the top levels it was published with.
//
// A reader of view v loads the current header. One stored at or before v's
// timestamp is the row's state at v, read as it is — always the case for a
// reader that refreshes the view it reads, as the Interactive mix's do. One
// stored later still begins with v's state: v keeps the base part plus the
// appended entries committed by its timestamp, whose stamps ascend, so a
// binary search finds them. A nil page or slot means no refresh of the era
// touched the row, so the base serves it, for every view of the era. A page
// created after a top level was copied is missing from the views that kept
// the old copy, which is right: it holds only state newer than they are.
//
// Node properties need no overlay: they are write-once, fixed when the node
// becomes visible. A base ordinal reads the base's row; an appended ordinal
// reads propsOver, the list kept beside nodesOver, whose entries a view
// reads only below its own length.
//
// # Append-sharing
//
// Each era has a single writer, the viewMu lineage: every refresh runs
// under viewMu and derives from the newest view of the era, so for each
// shared slice — a row's entries and commit stamps, the appended-ordinal
// lists nodesOver and propsOver, the per-kind scan lists — the newest header
// holds the longest prefix of one backing array and every older header a
// shorter prefix of the same array. A refresh appends in place, into the
// spare capacity beyond every published length; once capacity runs out,
// append reallocates (growing geometrically, so appends stay amortised
// O(1)) and the lineage moves to the new array.
// Readers index a slice only below the length in a header they loaded, and
// the atomic store that publishes a header (or a view) orders the element
// writes before any read through it, so the maintainer's writes and any
// reader's reads never touch the same element: there is nothing else to
// synchronise. Nodes and edges are insert-only, so every delta is an append;
// the one copy is the first touch of a base row in an era, which decodes it
// out of the slab.
//
// What would break it: a second writer on the era (both would write the
// same spare slot), a reader appending to or re-slicing a row it was handed
// (snblint's viewalias pass forbids it), a delta that rewrites an element
// some published header already covers instead of appending past it, or a
// header written after it was stored (a refresh builds each row's header on
// the side and stores it once, after the row's last append).
//
// # Compaction
//
// Overlay rows are decoded (16 bytes an entry against ~7 in the slab) and
// cost readers one extra indirection, so the overlay is folded back into a
// flat base once it holds more than a fixed fraction of the base's entries
// (compactTrigger, viewCompactFraction). One count decides it: the overlay
// the era's refreshes applied plus the backlog of commits since the cached
// view. The commit that takes that pair past the trigger makes the commit
// log drop the view's cursor (commitLog.append), and the next AcquireView
// finds nothing to refresh from: it rebuilds inline (ViewRebuilt) at the
// clock, a new era with its ordinals reassigned. So a view advances in two
// ways only, a refresh or a rebuild by the acquiring reader, and the reader
// that crosses the trigger pays the rebuild. The first view is a rebuild
// too; while it is built there is no trigger, so the commits landing
// meanwhile stay in the log, and the count takes them in from the first
// commit after the view is published.

// CommitDelta is one committed transaction's write set: the nodes it
// created, sorted by ID, and the edges it inserted, in call order — the
// finished Txn's own buffers, not a copy. It is the one record of a commit:
// install stores it, the view refresh applies it (applyDeltas), the WAL
// serialises it (appendCommitRecord) and replay decodes into it
// (decodeTxnPayload). It is immutable once recorded.
type CommitDelta struct {
	ts    int64
	nodes []pendingNode
	edges []pendingEdge
}

// View-maintenance constants; SetViewCompactThreshold overrides the
// trigger for tests and ablations.
const (
	// viewCompactFraction sets the compaction trigger: the overlay is folded
	// back into the base once it holds more than 1/viewCompactFraction of
	// the base's adjacency entries. Measured on the 1000-person dataset
	// (757 K base entries, a 17 MiB view in a 190 MiB store): a compaction
	// costs ~0.2 us per base entry (150-180 ms), so at 1/4 the rebuild
	// amortises to ~0.9 us per overlay entry — what the commit that
	// produced the entry cost — where 1/16 would spend more CPU compacting
	// than committing and refreshing together. The overlay weighs 10 MiB at
	// 71 K entries (most of it the one-off decode of the hub rows every
	// update touches) and 21 MiB at 221 K, so at the trigger it is about the
	// size of the base view, a tenth of the store.
	viewCompactFraction = 4

	// minViewCompactTrigger floors the automatic trigger (it was the fixed
	// trigger before the trigger followed the base): a store of a few
	// thousand entries would otherwise rebuild every few commits to fold an
	// overlay that costs nobody anything.
	minViewCompactTrigger = 4096

	autoCompactThreshold = -1 // compactThreshold: no explicit override
)

// SetViewCompactThreshold overrides the compaction trigger: from the next
// commit on, the view's era is rebuilt once its overlay plus the backlog
// since the cached view holds more than n entries, where the default is a
// fixed fraction of the base's size (viewCompactFraction). n <= 0 makes
// every view advance a rebuild — for tests and ablations.
func (s *Store) SetViewCompactThreshold(n int) {
	s.compactThreshold.Store(int64(max(n, 0)))
}

// compactTrigger is the size, in overlay entries, past which the era of
// the cached view v is rebuilt; none (noCursor) before the first view.
func (s *Store) compactTrigger(v *SnapshotView) int64 {
	if v == nil {
		return noCursor
	}
	if n := s.compactThreshold.Load(); n != autoCompactThreshold {
		return n
	}
	return int64(max(minViewCompactTrigger, v.base.entries/viewCompactFraction))
}

// ViewStatsSnapshot reports the store's view-maintenance counters and
// gauges.
type ViewStatsSnapshot struct {
	// Refreshes counts CurrentView advances served by applying deltas.
	Refreshes int64
	// Rebuilds counts full compactions run inline by CurrentView: the first
	// build and one per view-cursor drop that a reader followed (ViewAt
	// calls are not counted).
	Rebuilds int64
	// EraBumps counts the rebuilds that replaced an existing cached view and
	// so reassigned every ordinal.
	EraBumps int64
	// Overflows counts view-cursor drops: the overlay plus the backlog
	// passed the compaction trigger, so the next acquisition rebuilds.
	Overflows int64

	// OverlayEntries is the size of the cached era's overlay in delta
	// entries (created nodes plus two per edge), CompactTrigger the size
	// beyond which, backlog included, the era is rebuilt (math.MaxInt64
	// before the first view).
	OverlayEntries int64
	CompactTrigger int64
}

// ViewStats returns the view-maintenance counters (monotonic since store
// construction) and gauges.
func (s *Store) ViewStats() ViewStatsSnapshot {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return ViewStatsSnapshot{
		Refreshes:      s.viewRefreshes.Load(),
		Rebuilds:       s.viewRebuilds.Load(),
		EraBumps:       s.viewEraBumps.Load(),
		Overflows:      s.log.viewDrops,
		OverlayEntries: s.log.overlay,
		CompactTrigger: s.compactTrigger(s.view.Load()),
	}
}

// refreshView derives a view at ts from the cached view by applying the
// commits since it, or reports ok=false when the caller must rebuild: the
// log dropped the view's cursor. Called under viewMu.
//
//snb:locked viewMu
func (s *Store) refreshView(old *SnapshotView, ts int64) (*SnapshotView, bool) {
	ds, ok := s.log.since(old.ts, ts)
	if !ok {
		return nil, false
	}
	nv := applyDeltas(old, ds, ts, &s.rowWork)
	s.log.moveView(ts, false)
	return nv, true
}

// applyDeltas derives the view at ts from old, the newest view of its era,
// by applying consecutive commit deltas. The new view shares old's viewBase
// and the era's overlay; see "The overlay" and "Append-sharing" above for
// what it writes and why old — and every earlier view of the era — stays
// frozen for concurrent readers. w is the viewMu lineage's scratch.
//
// A delta is a write set, so the refresh derives what install did with it:
// created nodes take the next ordinals in ID order and join their kind
// lists; each edge gives an endpoint without an ordinal a bare record's,
// from first, then to, and appends the out-entry to from's row and the
// in-entry (out-entry, for a symmetric edge) to to's.
func applyDeltas(old *SnapshotView, ds []*CommitDelta, ts int64, w *rowWork) *SnapshotView {
	nv := &SnapshotView{
		ts:        ts,
		era:       old.era,
		base:      old.base,
		nodesOver: old.nodesOver,
		propsOver: old.propsOver,
		ordOver:   old.ordOver,
		over:      old.over,
		byKind:    old.byKind,
		keys:      old.keys,
	}
	r := refresher{nv: nv, w: w}
	for _, d := range ds {
		for _, n := range d.nodes {
			r.appendNode(n.id, n.props)
			k := n.id.Kind()
			nv.byKind[k] = append(nv.byKind[k], n.id)
			nv.keys[k].add(n.props)
		}
		for _, e := range d.edges {
			from, to := r.ord(e.from), r.ord(e.to)
			r.add(from, e.t, false, e.to, e.stamp, d.ts)
			r.add(to, e.t, !e.sym, e.from, e.stamp, d.ts)
		}
	}
	r.store()
	return nv
}

// refresher is applyDeltas' state while it derives nv.
type refresher struct {
	nv    *SnapshotView
	w     *rowWork
	owned bool // nv.over is this refresh's copy, not its predecessor's
}

// appendNode gives id the next ordinal, with props as its property row (nil
// for a bare endpoint record).
func (r *refresher) appendNode(id ids.ID, props Props) {
	nv := r.nv
	nv.nodesOver = append(nv.nodesOver, id)
	nv.propsOver = append(nv.propsOver, props)
	nv.ordOver = nv.ordOver.insert(nv.nodesOver)
}

// ord returns an edge endpoint's ordinal, appending a bare record's for an
// endpoint that has none: install materialised one for it.
func (r *refresher) ord(id ids.ID) int32 {
	if o, ok := r.nv.ord(id); ok {
		return o
	}
	r.appendNode(id, nil)
	return int32(r.nv.NumNodes() - 1)
}

// add appends one entry, committed at ts, to a row of ord.
func (r *refresher) add(ord int32, t EdgeType, in bool, peer ids.ID, stamp, ts int64) {
	h := r.row(ord, t, in)
	h.edges = append(h.edges, Edge{To: peer, Stamp: stamp})
	h.commits = append(h.commits, ts)
}

// rowWork holds the headers a refresh builds for the rows it touches, by
// slot, until it stores them. It belongs to the viewMu lineage and is empty
// between refreshes.
type rowWork map[*atomic.Pointer[rowHdr]]*rowHdr

// slot returns ord's slot in t, creating its page. t must cover ord.
func (t overTable) slot(ord int32) *atomic.Pointer[rowHdr] {
	i := int(ord) >> overPageBits
	p := t[i].Load()
	if p == nil {
		p = new(overPage)
		t[i].Store(p)
	}
	return &p[ord&(overPageSize-1)]
}

// covers reports whether t has a page for ord, created or not.
func (t overTable) covers(ord int32) bool { return int(ord)>>overPageBits < len(t) }

// grow returns a copy of t with room for n pages and a quarter more, so an
// era that keeps appending ordinals copies each top level O(log n) times.
func (t overTable) grow(n int) overTable {
	g := make(overTable, n+n/4)
	for i := range t {
		g[i].Store(t[i].Load())
	}
	return g
}

// own returns nv's overlay for replacing a top level: a copy of the one nv
// was handed, made at most once per refresh.
func (r *refresher) own() *overlay {
	if !r.owned {
		o := new(overlay)
		if r.nv.over != nil {
			*o = *r.nv.over
		}
		r.nv.over, r.owned = o, true
	}
	return r.nv.over
}

func (r *refresher) rowSlot(ord int32, key uint8) *atomic.Pointer[rowHdr] {
	if r.nv.over == nil || !r.nv.over.rows[key].covers(ord) {
		o := r.own()
		o.rows[key] = o.rows[key].grow((r.nv.NumNodes() + overPageSize - 1) >> overPageBits)
	}
	return r.nv.over.rows[key].slot(ord)
}

// row returns the unstored header this refresh builds a row's next state
// in, starting it at the refresh's first touch of the row: from the current
// header, or, at the era's first touch, from the base row decoded out of the
// slab — the compact representation pays the decode only for rows the update
// stream modifies, once per era, and the spare capacity lets the appends
// that follow share the array.
func (r *refresher) row(ord int32, t EdgeType, in bool) *rowHdr {
	sl := r.rowSlot(ord, rowKey(t, in))
	if h := (*r.w)[sl]; h != nil {
		return h
	}
	var h *rowHdr
	if cur := sl.Load(); cur != nil {
		h = &rowHdr{edges: cur.edges, commits: cur.commits}
	} else {
		rs := new(rowStart)
		h = &rs.hdr
		h.commits = rs.commits[:0]
		// nv has no header for the row yet, so these read the base row.
		if deg := r.nv.degreeAt(ord, t, in); deg < len(rs.edges) {
			h.edges = r.nv.appendEdges(rs.edges[:0], ord, t, in)
		} else {
			h.edges = r.nv.appendEdges(make([]Edge, 0, deg+deg/8+2), ord, t, in)
		}
	}
	h.ts = r.nv.ts
	if *r.w == nil {
		*r.w = make(rowWork)
	}
	(*r.w)[sl] = h
	return h
}

// store publishes the refresh's row headers and empties the scratch.
func (r *refresher) store() {
	for sl, h := range *r.w {
		sl.Store(h)
	}
	clear(*r.w)
}
