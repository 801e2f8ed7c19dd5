package store

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"ldbcsnb/internal/ids"
)

// Varint/delta adjacency codec. A frozen view's bulk is its adjacency; the
// PR 1 layout spent 16 bytes per stored direction-entry ([]Edge slab). The
// compact layout encodes each row into a shared byte slab:
//
//	row   := uvarint(count) entry*
//	entry := uvarint(zigzag(ordinal delta)) uvarint(zigzag(stamp delta))
//
// Neighbours are stored as view ordinals (4-byte dense indexes, resolved
// back to IDs through viewBase.nodes at decode time), and both the ordinal
// and the stamp are delta-coded against the previous entry of the same row.
// Rows keep insertion order — the Reader contract — so deltas are zigzag-
// coded rather than strictly ascending gaps; insertion order follows
// creation time, and time-ordered IDs (internal/ids) make consecutive
// ordinals and stamps near-neighbours, which is exactly the locality the
// delta coding exploits. Typical rows land between 2 and 6 bytes per entry
// against the fixed 16.
//
// Reads are served through the per-row decode cache (decCache below): each
// row is decoded out of the slab once, on first read, and every later read
// returns the same materialised []Edge — so steady-state iteration is a
// plain slice range, the PR 1 zero-alloc contract holds after first touch,
// and the encoded slab stays the resident, authoritative form.

// zigzag maps signed deltas onto unsigned varint-friendly space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendAdjRow encodes one adjacency row onto dst. Neighbour IDs resolve to
// view ordinals through ord, the base's directory over the sorted nodes —
// the lookup SnapshotView.ord makes first; ok=false (with dst unchanged) means
// some neighbour had no ordinal and the caller must keep the row
// uncompressed — defensive only, every edge endpoint of a consistent view
// is visible and ordinal-mapped.
func appendAdjRow(dst []byte, row []Edge, ord *ordDir, nodes []ids.ID) ([]byte, bool) {
	mark := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	prevOrd, prevStamp := int64(0), int64(0)
	for _, e := range row {
		o, ok := ord.lookup(e.To, nodes)
		if !ok {
			return dst[:mark], false
		}
		dst = binary.AppendUvarint(dst, zigzag(int64(o)-prevOrd))
		dst = binary.AppendUvarint(dst, zigzag(e.Stamp-prevStamp))
		prevOrd, prevStamp = int64(o), e.Stamp
	}
	return dst, true
}

// csr is one compact compressed-sparse-row adjacency of a viewBase: the
// encoded rows of every ordinal in [lo, lo+rows), back to back in data,
// delimited by the per-row byte-offset index. offsets is trimmed to the
// ordinal range that has any edge of this type/direction — ID-sorted
// ordinals group nodes by kind, so e.g. the knows CSR only carries offsets
// across the Person range instead of 4 bytes for every node in the view.
type csr struct {
	lo      int32    // first ordinal covered by offsets
	offsets []uint32 // byte offsets into data; row i of ordinal lo+i is data[offsets[i]:offsets[i+1]]
	data    []byte   // subslice of the view's shared slab
	entries int      // total encoded direction-entries, for stats
	dec     *decCache
}

// decCache is a csr's lazy per-row decode cache. Rows are decoded once,
// on first read, and every later read serves the decoded slice — hot-loop
// iteration runs at materialised-slice speed while the encoded slab stays
// the resident, authoritative form. The row table itself (8 bytes per row)
// is only allocated once some row of this csr is actually read, so a store
// that is loaded but not queried pays 0 bytes beyond this header, and the
// decoded bytes grow with the touched working set, never past the raw size
// of the relation. ViewMem.AdjCacheBytes reports the current footprint.
//
// A row read as Nodes (SnapshotView.OutNodes/InNodes) also carries its
// neighbours' ordinals, the deltas the slab already encodes, in a packed
// tail inside the row's own allocation: after the row's last entry, four
// int32 per Edge-sized slot (ordSlots), entry i's ordinal in slot i/4 —
// entries 4k and 4k+1 in the low and high half of the slot's To, 4k+2 and
// 4k+3 in those of its Stamp. The published slice is the entries, with the
// tail as its spare capacity: cap > len marks a row that has ordinals. A
// row gets them the first time it is read as Nodes; one that OutOf or InOf
// decoded first is decoded again with ordinals and republished. OutOf and
// InOf return every row capped at its length, so a caller's append can never
// write into the tail.
//
// Publication is a benign race: two readers may decode the same row
// concurrently, both results are identical (or one has ordinals and the
// other not, and either serves every read), and the losing slice is
// garbage. Serialisation paths (checkpoint, delta refresh) use appendRow,
// which never populates the cache — a full-store walk must not inflate it.
type decCache struct {
	mu   sync.Mutex // guards allocation of rows
	rows atomic.Pointer[[]atomic.Pointer[[]Edge]]
}

// cached returns one ordinal's published row, nil when it has none yet.
// It is small enough for the compiler to inline into rowAt and
// rowNodesAt: a handful of loads and one bounds check (against the cache
// table, which has exactly one slot per offsets row).
func (c *csr) cached(ord int32) *[]Edge {
	if d := c.dec; d != nil {
		if tbl := d.rows.Load(); tbl != nil {
			if i := int(ord) - int(c.lo); uint(i) < uint(len(*tbl)) {
				return (*tbl)[i].Load()
			}
		}
	}
	return nil
}

// rowAt returns one ordinal's row, capped at its length. nodes is the
// owning view's ordinal table. A published row is served as it is;
// everything else falls through to decodeRowAt.
//
//snb:noalloc
func (c *csr) rowAt(ord int32, nodes []ids.ID) []Edge {
	if p := c.cached(ord); p != nil {
		r := *p
		return r[:len(r):len(r)]
	}
	return c.decodeRowAt(ord, nodes, false)
}

// rowNodesAt returns one ordinal's row with its packed ordinal tail as the
// spare capacity (empty rows have none). A published row without the tail
// is decoded again with it.
//
//snb:noalloc
func (c *csr) rowNodesAt(ord int32, nodes []ids.ID) []Edge {
	if p := c.cached(ord); p != nil && (cap(*p) > len(*p) || len(*p) == 0) {
		return *p
	}
	return c.decodeRowAt(ord, nodes, true)
}

// decodeRowAt decodes one row off the slab, with its ordinal tail when
// withOrds, and publishes it to the decode cache (when the csr has one —
// hand-built test csrs may not). Empty rows publish too: a nil-slice entry
// is one pointer that spares every later read of that row the slab round
// trip.
func (c *csr) decodeRowAt(ord int32, nodes []ids.ID, withOrds bool) []Edge {
	i := int(ord) - int(c.lo)
	if i < 0 || i+1 >= len(c.offsets) {
		return nil
	}
	var row []Edge
	if b := c.data[c.offsets[i]:c.offsets[i+1]]; len(b) > 0 {
		count, n := binary.Uvarint(b)
		if withOrds {
			row = make([]Edge, count+uint64(ordSlots(int(count))))
			decodeRowNodes(row, b[n:], int(count), nodes)
			row = row[:count]
		} else {
			row = decodeRow(make([]Edge, 0, count), b[n:], int(count), nodes)
		}
	}
	if d := c.dec; d != nil {
		tbl := d.rows.Load()
		if tbl == nil {
			d.mu.Lock()
			if tbl = d.rows.Load(); tbl == nil {
				fresh := make([]atomic.Pointer[[]Edge], len(c.offsets)-1)
				d.rows.Store(&fresh)
				tbl = &fresh
			}
			d.mu.Unlock()
		}
		(*tbl)[i].Store(&row)
	}
	return row
}

// ordSlots is the number of Edge-sized slots the packed ordinals of a
// count-entry row take: four int32 to a slot.
func ordSlots(count int) int { return (count + 3) / 4 }

// ordAt returns entry i's ordinal out of a row's packed tail.
//
//snb:noalloc
func ordAt(tail []Edge, i int) int32 {
	s := &tail[i>>2]
	w := uint64(s.To)
	if i&2 != 0 {
		w = uint64(s.Stamp)
	}
	return int32(w >> (uint(i&1) << 5))
}

// decodeEntry decodes one (ordinal delta, stamp delta) entry off the front
// of b, returning the remaining bytes and the advanced accumulators. The
// caller guarantees at least one full entry remains — every entry is at
// least two bytes, so b[1] is in bounds. The common shape, both deltas
// fitting one varint byte, stays branch-local; everything else takes the
// generic Uvarint path.
func decodeEntry(b []byte, ord, stamp int64) ([]byte, int64, int64) {
	if b[0]|b[1] < 0x80 {
		return b[2:], ord + unzigzag(uint64(b[0])), stamp + unzigzag(uint64(b[1]))
	}
	u, i := binary.Uvarint(b)
	u2, m := binary.Uvarint(b[i:])
	return b[i+m:], ord + unzigzag(u), stamp + unzigzag(u2)
}

// decodeRow appends count decoded entries of b onto dst.
func decodeRow(dst []Edge, b []byte, count int, nodes []ids.ID) []Edge {
	var o, st int64
	for j := 0; j < count; j++ {
		b, o, st = decodeEntry(b, o, st)
		dst = append(dst, Edge{To: nodes[o], Stamp: st})
	}
	return dst
}

// decodeRowNodes decodes count entries of b into dst[:count] and their
// ordinals into the packed tail dst[count:], which must be zeroed and
// ordSlots(count) long.
func decodeRowNodes(dst []Edge, b []byte, count int, nodes []ids.ID) {
	tail := dst[count:]
	var o, st int64
	for j := 0; j < count; j++ {
		b, o, st = decodeEntry(b, o, st)
		dst[j] = Edge{To: nodes[o], Stamp: st}
		w := uint64(uint32(o)) << (uint(j&1) << 5)
		if s := &tail[j>>2]; j&2 == 0 {
			s.To |= ids.ID(w)
		} else {
			s.Stamp |= int64(w)
		}
	}
}

// appendRow appends one ordinal's decoded row onto dst without touching
// the decode cache: the materialisation path for full-store walks
// (checkpoint serialisation, delta refresh copy-out) that must not
// inflate the cache to the raw size of the store.
func (c *csr) appendRow(dst []Edge, ord int32, nodes []ids.ID) []Edge {
	i := int(ord) - int(c.lo)
	if i < 0 || i+1 >= len(c.offsets) {
		return dst
	}
	b := c.data[c.offsets[i]:c.offsets[i+1]]
	if len(b) == 0 {
		return dst
	}
	count, n := binary.Uvarint(b)
	return decodeRow(dst, b[n:], int(count), nodes)
}

// cacheBytes reports the decode cache's current heap footprint: the row
// table plus every published row, 16 bytes an entry and 4 more for each
// ordinal of a row read as Nodes. Approximate (slice headers, allocator
// rounding and the padding of a tail's last slot excluded) but monotonic
// and race-safe.
func (c *csr) cacheBytes() int64 {
	if c.dec == nil {
		return 0
	}
	tbl := c.dec.rows.Load()
	if tbl == nil {
		return 0
	}
	total := int64(len(*tbl)) * 8
	for i := range *tbl {
		if p := (*tbl)[i].Load(); p != nil {
			total += int64(len(*p)) * 16
			if cap(*p) > len(*p) {
				total += int64(len(*p)) * 4 // the packed ordinals
			}
		}
	}
	return total
}

// degreeAt returns the row's entry count without decoding entries: one
// uvarint read off the row head.
//
//snb:noalloc
func (c *csr) degreeAt(ord int32) int {
	i := int(ord) - int(c.lo)
	if i < 0 || i+1 >= len(c.offsets) {
		return 0
	}
	b := c.data[c.offsets[i]:c.offsets[i+1]]
	if len(b) == 0 {
		return 0
	}
	count, _ := binary.Uvarint(b)
	return int(count)
}

// bytes returns the heap footprint of the CSR (slab share plus offsets).
func (c *csr) bytes() int64 {
	return int64(len(c.data)) + int64(len(c.offsets))*4
}
