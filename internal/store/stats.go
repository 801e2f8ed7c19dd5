package store

import (
	"sort"
	"unsafe"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/intern"
)

// TableStat describes the approximate in-memory footprint of one logical
// "table" (node kind or edge type), for the Table 8 experiment.
type TableStat struct {
	Name  string
	Rows  int
	Bytes int64
}

// Stats is a storage-size report.
type Stats struct {
	Nodes  int
	Edges  int
	Tables []TableStat // sorted by Bytes descending

	// InternBytes is the footprint of the process-wide string intern table
	// (arena payload plus index). String property values everywhere in the
	// store are 4-byte symbols into it, so the payload is accounted once
	// here rather than per occurrence under Tables.
	InternBytes int64

	// MutableBytes is the heap the mutable MVCC side holds, the sum of
	// Tables[i].Bytes: per node, the shard-map entry, the record, its row
	// table and its property list; per adjacency entry, the lists at
	// capacity (append slack is real memory), which is MutableAdjBytes over
	// MutableEntries (each logical edge counts twice).
	MutableBytes    int64
	MutableAdjBytes int64
	MutableEntries  int

	// View is the footprint of the store's cached snapshot view (zero if no
	// view has been built yet). It is era-aware: overlay rows accumulated by
	// delta refreshes since the era's compaction are counted, not just the
	// frozen base — a store serving a long refresh chain carries both.
	View ViewMem
}

// MutableBytesPerNode is the mutable side's node cost (everything but the
// adjacency lists) divided over stored nodes.
func (st Stats) MutableBytesPerNode() float64 {
	if st.Nodes == 0 {
		return 0
	}
	return float64(st.MutableBytes-st.MutableAdjBytes) / float64(st.Nodes)
}

// MutableBytesPerEntry is the mutable side's cost per stored adjacency
// direction-entry: 24-byte edgeRecs plus the lists' append slack (~30 B at
// 1000 persons).
func (st Stats) MutableBytesPerEntry() float64 {
	if st.MutableEntries == 0 {
		return 0
	}
	return float64(st.MutableAdjBytes) / float64(st.MutableEntries)
}

// ViewMem breaks down the resident footprint of one SnapshotView.
// All byte figures are approximate heap footprints, consistent with
// ComputeStats.
type ViewMem struct {
	Era   uint64
	Nodes int // visible nodes, base plus refresh-appended
	Edges int // stored direction-entries (each logical edge counts twice)

	AdjBytes     int64 // encoded adjacency: shared varint slab + per-row offset indexes
	PropBytes    int64 // ordinal -> property row tables, base and appended; the rows are the MVCC side's (Stats.MutableBytes)
	NodeBytes    int64 // base ordinal mapping: ordinal->ID slice and ID->ordinal directory
	KindBytes    int64 // per-kind scan lists
	OverlayBytes int64 // the era's refresh state: page tables, headers, touched rows and their commit stamps, appended ordinals and their ID table, spill

	// AdjCacheBytes is the decode cache: rows the read path has actually
	// iterated, decoded once and kept as []Edge (codec.go). It grows with
	// the touched working set — zero for a store that is loaded but not
	// queried, bounded by UncompressedAdjBytes when every row is hot — and
	// is the price of serving hot-row iteration at materialised-slice
	// speed while AdjBytes stays the resident, authoritative form.
	AdjCacheBytes int64

	// UncompressedAdjBytes is what the frozen adjacency would occupy in the
	// pre-compaction layout (16-byte Edge structs in per-type slabs plus the
	// same row offsets) — the baseline AdjBytes is measured against.
	// UncompressedAdjBytes/AdjBytes is the codec's compression ratio.
	UncompressedAdjBytes int64
}

// TotalBytes is the view's whole footprint, decode cache included.
func (m ViewMem) TotalBytes() int64 {
	return m.AdjBytes + m.AdjCacheBytes + m.PropBytes + m.NodeBytes + m.KindBytes + m.OverlayBytes
}

// BytesPerNode is the all-in footprint divided over visible nodes.
func (m ViewMem) BytesPerNode() float64 {
	if m.Nodes == 0 {
		return 0
	}
	return float64(m.TotalBytes()) / float64(m.Nodes)
}

// BytesPerEdge is the adjacency footprint per stored direction-entry.
func (m ViewMem) BytesPerEdge() float64 {
	if m.Edges == 0 {
		return 0
	}
	return float64(m.AdjBytes) / float64(m.Edges)
}

const (
	viewEdgeBytes = 16 // Edge{To, Stamp} — the uncompressed per-entry cost
	mapEntryBytes = 24 // approximate per-entry bucket cost of a small-value map
	sliceHdrBytes = 24
)

// MemStats measures the view's resident footprint. The view is immutable,
// so the walk needs no locks; cost is proportional to the overlay (the
// frozen base is measured from slab lengths, not by iterating rows).
func (v *SnapshotView) MemStats() ViewMem {
	b := v.base
	m := ViewMem{Era: v.era, Nodes: v.NumNodes()}

	for t := EdgeType(1); t < edgeTypeMax; t++ {
		for _, c := range [2]*csr{&b.out[t], &b.in[t]} {
			if c.offsets == nil {
				continue
			}
			m.Edges += c.entries
			m.AdjBytes += c.bytes()
			m.AdjCacheBytes += c.cacheBytes()
			m.UncompressedAdjBytes += int64(c.entries)*viewEdgeBytes + int64(len(c.offsets))*4
		}
	}
	m.PropBytes = int64(len(b.props)+cap(v.propsOver)) * sliceHdrBytes
	m.NodeBytes = int64(len(b.nodes))*8 + int64(len(b.ord.kinds))*int64(unsafe.Sizeof(dirKind{}))
	for _, k := range b.ord.kinds {
		m.NodeBytes += int64(len(k.dir)) * 4
	}
	for _, list := range v.byKind {
		m.KindBytes += int64(len(list)) * 8
	}

	// Overlay state: refresh-appended ordinals and their ID table, the page
	// tables' top levels and pages, every current row header with its
	// entries and commit stamps at capacity (append-shared arrays hold their
	// spare slots), plus any spill rows the encoder kept raw. Edges gains the
	// entries the era appended by the view's timestamp; a first-touched
	// row's base part is already in the csr's.
	m.OverlayBytes += int64(cap(v.nodesOver)) * 8
	if v.ordOver != nil {
		m.OverlayBytes += int64(len(v.ordOver.slots)) * 4
	}
	if o := v.over; o != nil {
		for _, t := range o.rows {
			m.OverlayBytes += t.each(func(h *rowHdr) {
				m.Edges += len(h.at(v.ts)) - (len(h.edges) - len(h.commits))
				m.OverlayBytes += int64(unsafe.Sizeof(*h)) + int64(cap(h.edges))*viewEdgeBytes + int64(cap(h.commits))*8
			})
		}
	}
	for _, row := range b.spill {
		m.Edges += len(row)
		m.OverlayBytes += mapEntryBytes + sliceHdrBytes + int64(len(row))*viewEdgeBytes
	}
	return m
}

// each calls fn on every header in t and returns the bytes of t's top
// level and pages.
func (t overTable) each(fn func(*rowHdr)) int64 {
	n := int64(len(t)) * 8
	for i := range t {
		p := t[i].Load()
		if p == nil {
			continue
		}
		n += int64(unsafe.Sizeof(*p))
		for j := range p {
			if h := p[j].Load(); h != nil {
				fn(h)
			}
		}
	}
	return n
}

// ComputeStats scans the store and reports per-table sizes.
// It takes shard read locks briefly per shard; sizes are approximate heap
// footprints (the analogue of Virtuoso's allocated database pages in
// Table 8).
func (s *Store) ComputeStats() Stats {
	kindRows := map[ids.Kind]int{}
	kindBytes := map[ids.Kind]int64{}
	edgeRows := map[EdgeType]int{}
	edgeBytesBy := map[EdgeType]int64{}
	var st Stats

	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, rec := range sh.nodes {
			st.Nodes++
			k := id.Kind()
			kindRows[k]++
			// Measured sizes at capacity, not nominal ones: the record, its
			// row table and its property list.
			b := mapEntryBytes + int64(unsafe.Sizeof(*rec)) +
				int64(cap(rec.adj.rows))*int64(unsafe.Sizeof(adjRow{})) +
				int64(cap(rec.props))*int64(unsafe.Sizeof(Prop{}))
			kindBytes[k] += b
			st.MutableBytes += b
			for _, r := range rec.adj.rows {
				// In-edges are the reverse adjacency of the same logical
				// edge; count their space under the same table.
				lb := int64(cap(r.list)) * int64(unsafe.Sizeof(edgeRec{}))
				edgeBytesBy[r.edgeType()] += lb
				st.MutableAdjBytes += lb
				st.MutableEntries += len(r.list)
				if !r.in() && len(r.list) > 0 {
					st.Edges += len(r.list)
					edgeRows[r.edgeType()] += len(r.list)
				}
			}
		}
		sh.mu.RUnlock()
	}

	st.MutableBytes += st.MutableAdjBytes
	for k, rows := range kindRows {
		st.Tables = append(st.Tables, TableStat{Name: k.String(), Rows: rows, Bytes: kindBytes[k]})
	}
	for t, rows := range edgeRows {
		st.Tables = append(st.Tables, TableStat{Name: t.String(), Rows: rows, Bytes: edgeBytesBy[t]})
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Bytes > st.Tables[j].Bytes })

	st.InternBytes = intern.Default.Bytes()
	// Measure the cached view as it is — era, overlays and all. Loading the
	// pointer rather than calling CurrentView keeps ComputeStats passive: it
	// reports what is resident, it does not trigger a refresh or rebuild
	// (and earlier revisions that re-measured only the frozen base
	// under-reported stores sitting at the end of a long refresh chain).
	if v := s.view.Load(); v != nil {
		st.View = v.MemStats()
	}
	return st
}
