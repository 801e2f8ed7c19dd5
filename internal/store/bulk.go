package store

import (
	"maps"
	"math"
	"math/bits"

	"ldbcsnb/internal/ids"
)

// Load installs the write sets of parts — write transactions that have not
// finished, taken in order — as one commit at one timestamp C: the bulk
// load. The result is what one transaction buffering them all would commit:
// created nodes in ID order, each adjacency row's new entries in call
// order, a bare record for an endpoint nobody created, and ErrExists, with
// nothing installed, for an ID created twice or already taken. Load
// finishes the parts.
//
// It builds the shard state in arenas (build), and it records no write
// set: the commit log indexes write sets by consecutive timestamp and C has
// none, so every cursor moves past C (commitLog.pass) and the cached view's
// next reader rebuilds. On a durable store the loaded image becomes a
// checkpoint at C before Load returns, and no WAL record is written
// (Persistent.checkpointBulk).
func (s *Store) Load(parts ...*Txn) error {
	n, nEdges := 0, 0
	for _, tx := range parts {
		if err := tx.writable(); err != nil {
			return err
		}
		n, nEdges = n+len(tx.nodes), nEdges+len(tx.edges)
	}
	if n == 0 && nEdges == 0 {
		s.commits.Add(1) // an empty write set commits nothing, as in Commit
		return nil
	}
	nodes := make([]pendingNode, 0, n)
	for _, tx := range parts {
		tx.done = true
		nodes = append(nodes, tx.nodes...)
	}
	if err := sortCreated(nodes); err != nil {
		s.aborts.Add(1)
		return err
	}
	// Lock order ckptMu -> viewMu -> commitMu, as Checkpoint takes them.
	p := s.durable
	if p != nil {
		p.ckptMu.Lock()
		defer p.ckptMu.Unlock()
		s.viewMu.Lock()
		defer s.viewMu.Unlock()
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.admit(nodes); err != nil {
		return err
	}
	// Every record below C goes to a sealed segment; the next one is C+1.
	if err := s.rotateWAL(); err != nil {
		return err
	}
	ts := s.clock.Load() + 1
	s.build(nodes, parts, nEdges, ts)
	s.log.pass(ts)
	s.clock.Store(ts)
	s.commits.Add(1)
	if p != nil {
		return p.checkpointBulk(ts)
	}
	return nil
}

// build installs nodes — sorted by ID, none of them taken — and the nEdges
// edges of parts at ts. It counts the entries of every (node, row key), carves
// records, property rows, row tables and edge lists from one arena sized to
// those counts, fills each row in call order (from-side entry before
// to-side, as install does) and installs the records under all shard locks
// at once. A stored node an edge touches is copied into the arena with its
// rows. Rows are kept in key order.
//
// The caller holds commitMu, which every writer of a stored record's rows
// holds too: build reads them without the shard locks.
//
//snb:locked commitMu
func (s *Store) build(nodes []pendingNode, parts []*Txn, nEdges int, ts int64) {
	// Positions: the created nodes in ID order (dir covers those), then
	// every other endpoint on first sight, with its stored record (nil for
	// a bare endpoint, and for a created node).
	at := make([]ids.ID, len(nodes))
	for i := range nodes {
		at[i] = nodes[i].id
	}
	dir := newOrdDir(at)
	stored := make([]*nodeRec, len(nodes))
	others := make(map[ids.ID]int32)
	ends := make([]int32, 0, 2*nEdges)
	pos := func(id ids.ID) int32 {
		if p, ok := dir.lookup(id, at); ok {
			return int32(p)
		}
		if p, ok := others[id]; ok {
			return p
		}
		others[id], at = int32(len(at)), append(at, id)
		sh := s.shardFor(id)
		sh.mu.RLock()
		stored = append(stored, sh.nodes[id])
		sh.mu.RUnlock()
		return int32(len(at) - 1)
	}
	for _, tx := range parts {
		for _, e := range tx.edges {
			ends = append(ends, pos(e.from), pos(e.to))
		}
	}
	eachEntry := func(f func(p int32, key uint8, peer ids.ID, stamp int64)) {
		j := 0
		for _, tx := range parts {
			for _, e := range tx.edges {
				f(ends[j], rowKey(e.t, false), e.to, e.stamp)
				f(ends[j+1], rowKey(e.t, !e.sym), e.from, e.stamp)
				j += 2
			}
		}
	}

	// One bit per row key a position has a row on (rowKey < 32): a stored
	// node's rows and those new entries land in. Its rows are its bits in
	// ascending order, so (position, key) names one counter of new entries.
	masks := make([]uint32, len(at))
	for p, rec := range stored {
		if rec != nil {
			for _, r := range rec.adj.rows {
				masks[p] |= 1 << r.key
			}
		}
	}
	eachEntry(func(p int32, key uint8, _ ids.ID, _ int64) { masks[p] |= 1 << key })
	first := make([]int32, len(at)+1)
	for p, m := range masks {
		first[p+1] = first[p] + int32(bits.OnesCount32(m))
	}
	rank := func(p int32, key uint8) int32 { return int32(bits.OnesCount32(masks[p] & (1<<key - 1))) }
	gains := make([]int32, first[len(at)])
	eachEntry(func(p int32, key uint8, _ ids.ID, _ int64) { gains[first[p]+rank(p, key)]++ })
	// rowsOf calls f on each row of position p in key order, with the
	// entries it gains and the list its stored record already holds.
	rowsOf := func(p int, f func(i int, key uint8, gain int, old []edgeRec)) {
		m := masks[p]
		for i, gain := range gains[first[p]:first[p+1]] {
			key := uint8(bits.TrailingZeros32(m))
			m &= m - 1
			var old []edgeRec
			if rec := stored[p]; rec != nil {
				old = rec.adj.get(EdgeType(key>>1), key&1 != 0)
			}
			f(i, key, int(gain), old)
		}
	}
	propsOf := func(p int) Props {
		if p < len(nodes) {
			return nodes[p].props
		}
		if rec := stored[p]; rec != nil {
			return rec.props
		}
		return nil
	}

	a := arena{recs: pool[nodeRec]{left: len(at)}}
	for p, m := range masks {
		a.props.left += len(propsOf(p))
		if m != 0 {
			a.rows.left += tableCap(bits.OnesCount32(m))
		}
		rowsOf(p, func(_ int, _ uint8, gain int, old []edgeRec) { a.edges.left += listCap(len(old) + gain) })
	}
	recs := make([]*nodeRec, len(at))
	var added [shardCount]int
	for p, m := range masks {
		rec := a.rec()
		rec.id, rec.commit, rec.props = at[p], ts, a.copyProps(propsOf(p))
		if old := stored[p]; old != nil {
			rec.commit = old.commit
		} else {
			added[shardIndex(rec.id)]++
		}
		if m != 0 {
			rec.adj.rows = a.table(bits.OnesCount32(m))
			rowsOf(p, func(i int, key uint8, gain int, old []edgeRec) {
				rec.adj.rows[i] = adjRow{key: key, list: append(a.list(len(old) + gain)[:0], old...)}
			})
		}
		recs[p] = rec
	}
	eachEntry(func(p int32, key uint8, peer ids.ID, stamp int64) {
		r := &recs[p].adj.rows[rank(p, key)]
		r.list = append(r.list, edgeRec{peer: peer, stamp: stamp, commit: ts})
	})

	// Install: a copy replaces its stored record. A reader sees one or the
	// other, and not the entries at ts in either.
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		if sh := &s.shards[i]; len(sh.nodes) < added[i] {
			m := make(map[ids.ID]*nodeRec, len(sh.nodes)+added[i])
			maps.Copy(m, sh.nodes)
			sh.nodes = m
		}
	}
	for _, rec := range recs {
		s.shards[shardIndex(rec.id)].nodes[rec.id] = rec
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	s.kindMu.Lock()
	for _, nd := range nodes {
		s.byKind[nd.id.Kind()] = append(s.byKind[nd.id.Kind()], nd.id)
	}
	s.kindMu.Unlock()
}

// arena carves node records, property rows, row tables and edge lists out
// of shared chunks, for the bulk load and checkpoint restore. Every carved
// slice is capacity-clipped: an append past its capacity reallocates
// privately, never into a neighbour.
type arena struct {
	recs  pool[nodeRec]
	props pool[Prop]
	rows  pool[adjRow]
	edges pool[edgeRec]
}

// arenaChunk is the most entries a chunk holds. A slice of more than an
// eighth of a chunk gets an allocation of its own, so the tail a chunk
// loses to a carve that does not fit stays below an eighth of it.
const arenaChunk = 1 << 14

// pool is one arena's chunks of T. left is how many entries are still to
// be carved, unknownLeft when the total is not known: it sizes the last
// chunk to what remains.
type pool[T any] struct {
	free []T
	left int
}

const unknownLeft = math.MaxInt

// carve returns n entries with capacity c.
func (p *pool[T]) carve(n, c int) []T {
	left := p.left
	p.left -= c
	if c > arenaChunk/8 {
		return make([]T, n, c)
	}
	if c > len(p.free) {
		p.free = make([]T, min(arenaChunk, max(left, c)))
	}
	out := p.free[:n:c]
	p.free = p.free[c:]
	return out
}

func (a *arena) rec() *nodeRec { return &a.recs.carve(1, 1)[0] }

// propRow returns an exactly sized property row of n entries, nil for none.
func (a *arena) propRow(n int) Props {
	if n == 0 {
		return nil
	}
	return a.props.carve(n, n)
}

func (a *arena) copyProps(ps Props) Props {
	row := a.propRow(len(ps))
	copy(row, ps)
	return row
}

// table returns a row table of n rows with the spare capacity
// adjacency.ref leaves one: minRows, then exact.
func (a *arena) table(n int) []adjRow { return a.rows.carve(n, tableCap(n)) }

func tableCap(n int) int { return max(n, minRows) }

// list returns an edge list of n entries at listCap(n).
func (a *arena) list(n int) []edgeRec { return a.edges.carve(n, listCap(n)) }

// listCap is the capacity n appends one at a time leave an edge list at:
// Go's append growth — double below 256, then a quarter plus 192 — without
// its rounding up to a size class. An exact-fit list would copy itself at
// the update stream's first append to it: a restored exact-fit store grew
// by 56 MiB over a third of the update stream, against 39.7 MiB for one
// built by commits, and a tag's ~10⁴-entry in-row would be copied under
// commitMu.
func listCap(n int) int {
	c := 0
	for c < n {
		if c < 256 {
			c = max(2*c, 1)
		} else {
			c += (c + 3*256) >> 2
		}
	}
	return c
}
