package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/intern"
)

// Durable checkpoints. A checkpoint is the visible state of the store at
// one commit timestamp C, serialised to a single versioned, CRC-protected
// file: every visible node with its property list and adjacency, the
// per-kind scan lists, and the commit clock.
// Recovery (Open in persist.go) loads the newest valid checkpoint and
// replays only the WAL records with timestamps above C — the "checkpoint +
// tail" path that replaces full log replay.
//
// # Checkpoints serialise a frozen view
//
// The writer walks a SnapshotView, never the live shards: the view is
// frozen after construction (CSR slabs plus an overlay it reads at its own
// timestamp, whatever later refreshes store into it), so serialisation runs
// concurrently with commits and view compaction without any stop-the-world
// on the write path. An era bump mid-checkpoint is harmless: the held view
// stays frozen regardless of what the cached view does.
//
// # What restoring flattens
//
// Restoring a checkpoint rebuilds the store as if every visible fact had
// committed at timestamp C: MVCC history below C (the commit at which each
// node and edge appeared) is not in the file and cannot be recovered from
// it. Any read at a snapshot >= C is unaffected — node properties are
// write-once and edges insert-only, so the state at C is all such a read
// sees of the history below it — and recovery sets the clock to C, so no
// later reader can observe the difference. The WAL tail then re-creates
// history above C record by record.
//
// # On-disk format (version 3)
//
// docs/FORMATS.md is the authoritative byte-level spec. Summary
// (little-endian):
//
//	file    := magic:u32 "SCKP" | version:u16 | reserved:u16 | body | crc:u32
//	body    := clock:u64
//	           dict
//	           nNodes:u32 node*
//	           nKinds:u16 kindList*
//	dict    := count:u32 (len:u32 bytes)*
//	node    := id:u64 | nProps:u16 prop2* | nLists:u8 list2*
//	prop2   := key:u8 | valKind:u8 | (int: u64 | string: dictIdx:u32)
//	list2   := type:u8 | dir:u8 | count:u32 | entry*
//	entry   := uvarint(zigzag(peer delta)) uvarint(zigzag(stamp delta))
//	kindList:= kind:u8 | count:u32 | id:u64*
//
// The dictionary carries every distinct property string once; prop2 string
// values name their string by dense dictionary index, and restore re-interns
// the dictionary in one pass, so checkpoints are independent of any
// process's symbol assignment (interner Syms are first-intern-ordered and
// never durable — see internal/intern). Adjacency entries are delta-coded
// against the previous entry of the same list with zigzag varints, the
// durable cousin of the in-memory compact CSR (codec.go); time-ordered IDs
// make consecutive peers near-neighbours, so entries average a few bytes
// against v1's fixed 16.
//
// crc is CRC32-IEEE over everything before it, so torn or bit-rotted
// checkpoint files fail closed: the loader falls back to the next older
// checkpoint, or to full WAL replay.
//
// Compatibility rules: version is bumped on any incompatible change and
// loaders refuse versions they do not know — but refusal is fallback-
// eligible (errCkptVersion), so a store upgraded across a version bump
// recovers from an older readable checkpoint or, failing that, full WAL
// replay of older segments (the WAL format carries strings inline and is
// unchanged). Unknown section trailers are an error (the format has no
// skippable extensions yet).
const (
	ckptMagic   = 0x504B4353 // "SCKP"
	ckptVersion = 3
)

// errCkptVersion marks a checkpoint written in a format version this build
// does not read. Open treats it as fallback-eligible — like corruption, but
// reported distinctly — so upgraded stores recover from older checkpoints
// or from full WAL replay instead of refusing to start.
var errCkptVersion = errors.New("unsupported checkpoint version")

const (
	ckptPrefix    = "ckpt-"
	ckptSuffix    = ".ckpt"
	ckptTmpSuffix = ".tmp"
)

func ckptName(ts int64) string {
	return fmt.Sprintf("%s%016d%s", ckptPrefix, ts, ckptSuffix)
}

// checkpointFile describes one on-disk checkpoint.
type checkpointFile struct {
	ts   int64
	path string
}

// scanCheckpoints lists checkpoint files newest-first. Temp files and
// foreign names are ignored.
func scanCheckpoints(dir string) ([]checkpointFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cks []checkpointFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		ts, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
		if err != nil {
			continue
		}
		cks = append(cks, checkpointFile{ts: ts, path: filepath.Join(dir, name)})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].ts > cks[j].ts })
	return cks, nil
}

// writeCheckpoint serialises the view into dir, atomically: the bytes are
// written to a temp file, fsynced, renamed into place and the
// directory entry fsynced, so a crash leaves either the complete new
// checkpoint or none. hookBeforeRename, when non-nil, runs between the temp
// fsync and the rename (crash-injection tests).
func writeCheckpoint(dir string, v *SnapshotView, hookBeforeRename func()) (string, error) {
	tmp := filepath.Join(dir, ckptName(v.Timestamp())+ckptTmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp) // no-op after a successful rename

	bw := bufio.NewWriterSize(f, 1<<16)
	crc := crc32.NewIEEE()
	w := io.MultiWriter(bw, crc)
	// fail closes the temp file on an error path, joining rather than
	// dropping the close error: a failed close can be the kernel's first
	// (and only) report of a writeback failure.
	fail := func(e error) (string, error) { return "", errors.Join(e, f.Close()) }
	if err := encodeCheckpoint(w, v); err != nil {
		return fail(err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if hookBeforeRename != nil {
		hookBeforeRename()
	}
	final := filepath.Join(dir, ckptName(v.Timestamp()))
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// encodeCheckpoint writes header and body (everything the trailing CRC
// covers) to w.
func encodeCheckpoint(w io.Writer, v *SnapshotView) error {
	buf := make([]byte, 0, 1<<16)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}

	buf = appendU32(buf, ckptMagic)
	buf = appendU16(buf, ckptVersion)
	buf = appendU16(buf, 0)
	buf = appendU64(buf, uint64(v.Timestamp()))

	// Nodes, ascending by ID for determinism (base ordinals are ID-sorted;
	// overlay-appended ordinals are not, so re-sort the union).
	nodeIDs := make([]ids.ID, 0, v.NumNodes())
	nodeIDs = append(nodeIDs, v.base.nodes...)
	nodeIDs = append(nodeIDs, v.nodesOver...)
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })

	// Dictionary pass: every distinct property string of the view, in
	// first-seen (node-ID) order — a pure map probe per string value, cheap
	// next to the serialisation itself. prop2 records then name strings by
	// dense dictionary index, decoupling the file from the process's
	// interner symbol assignment.
	dict := make(map[intern.Sym]uint32)
	dictStrs := []intern.Sym{}
	for _, id := range nodeIDs {
		ord, _ := v.ord(id)
		for _, p := range v.propsAt(ord) {
			if y := p.Val().Sym(); p.k == kindString {
				if _, ok := dict[y]; !ok {
					dict[y] = uint32(len(dictStrs))
					dictStrs = append(dictStrs, y)
				}
			}
		}
	}
	buf = appendU32(buf, uint32(len(dictStrs)))
	for _, y := range dictStrs {
		s := intern.Lookup(y)
		buf = appendU32(buf, uint32(len(s)))
		buf = append(buf, s...)
		if len(buf) >= 1<<16 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	buf = appendU32(buf, uint32(len(nodeIDs)))
	var rowBuf []Edge // reused per row; appendEdges keeps the decode cache cold
	for _, id := range nodeIDs {
		ord, _ := v.ord(id)
		buf = appendU64(buf, uint64(id))
		ps := v.propsAt(ord)
		buf = appendU16(buf, uint16(len(ps)))
		for _, p := range ps {
			buf = append(buf, byte(p.Key))
			switch p.k {
			case kindInt:
				buf = append(buf, 1)
				buf = appendU64(buf, uint64(p.bits))
			case kindString:
				buf = append(buf, 2)
				buf = appendU32(buf, dict[p.Val().Sym()])
			default:
				buf = append(buf, 0)
			}
		}
		// Non-empty adjacency rows only; nLists fits u8 (15 types x 2 dirs).
		nLists := 0
		mark := len(buf)
		buf = append(buf, 0)
		for t := EdgeType(1); t < edgeTypeMax; t++ {
			for dir := 0; dir < 2; dir++ {
				rowBuf = v.appendEdges(rowBuf[:0], ord, t, dir == 1)
				if len(rowBuf) == 0 {
					continue
				}
				nLists++
				buf = append(buf, byte(t), byte(dir))
				buf = appendU32(buf, uint32(len(rowBuf)))
				prevPeer, prevStamp := int64(0), int64(0)
				for _, e := range rowBuf {
					buf = binary.AppendUvarint(buf, zigzag(int64(e.To)-prevPeer))
					buf = binary.AppendUvarint(buf, zigzag(e.Stamp-prevStamp))
					prevPeer, prevStamp = int64(e.To), e.Stamp
				}
			}
		}
		buf[mark] = byte(nLists)
		if len(buf) >= 1<<16 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	// Per-kind scan lists, in live (commit) order — NodesOfKind's contract.
	var kinds []ids.Kind
	for k, list := range v.byKind {
		if len(list) > 0 {
			kinds = append(kinds, ids.Kind(k))
		}
	}
	buf = appendU16(buf, uint16(len(kinds)))
	for _, k := range kinds {
		list := v.byKind[k]
		buf = append(buf, byte(k))
		buf = appendU32(buf, uint32(len(list)))
		for _, id := range list {
			buf = appendU64(buf, uint64(id))
		}
		if len(buf) >= 1<<16 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// loadCheckpoint validates path (magic, version, CRC) and installs its
// contents into s, which must be freshly constructed. It returns the
// checkpoint's commit clock. Validation errors (wrapped ErrCorrupt or
// errCkptVersion) leave the caller free to fall back to an older checkpoint.
//
// Installation is direct (shard maps, adjacency, kind lists — no
// transactions): every restored fact carries commit timestamp C, the
// checkpoint clock. Open is single-threaded and the store unpublished, so
// no locks are taken.
//
//snb:locked mu kindMu
func loadCheckpoint(s *Store, path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	base := filepath.Base(path)
	if len(data) < 8+8+4 {
		return 0, fmt.Errorf("%w: checkpoint %s: truncated", ErrCorrupt, base)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != ckptMagic {
		return 0, fmt.Errorf("%w: checkpoint %s: bad magic", ErrCorrupt, base)
	}
	if ver := binary.LittleEndian.Uint16(data[4:6]); ver != ckptVersion {
		return 0, fmt.Errorf("%w: checkpoint %s: version %d (this build reads %d)", errCkptVersion, base, ver, ckptVersion)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, fmt.Errorf("%w: checkpoint %s: CRC mismatch", ErrCorrupt, base)
	}

	d := &walDecoder{b: body, pos: 8}
	clock := int64(d.u64())

	// Dictionary: re-intern every string once, then property decode is a
	// dense index into syms. Symbols are assigned by THIS process's
	// interner — the file's dictionary indexes are never stored in memory.
	nDict := int(d.u32())
	syms := make([]intern.Sym, 0, nDict)
	for i := 0; i < nDict && d.err == nil; i++ {
		syms = append(syms, intern.Intern(d.str(int(d.u32()))))
	}
	if d.err != nil {
		return 0, fmt.Errorf("%w: checkpoint %s: bad dictionary", ErrCorrupt, base)
	}

	nNodes := int(d.u32())
	// Records, property rows, row tables and edge lists are carved from the
	// bulk load's arena (bulk.go), lists with the same append slack: the
	// file gives each count before its entries.
	for i := range s.shards {
		s.shards[i].nodes = make(map[ids.ID]*nodeRec, nNodes/shardCount+1)
	}
	a := arena{
		recs:  pool[nodeRec]{left: nNodes},
		props: pool[Prop]{left: unknownLeft},
		rows:  pool[adjRow]{left: unknownLeft},
		edges: pool[edgeRec]{left: unknownLeft},
	}
	for i := 0; i < nNodes && d.err == nil; i++ {
		id := ids.ID(d.u64())
		props := a.propRow(int(d.u16()))
		for j := range props {
			key := PropKey(d.u8())
			switch d.u8() {
			case 1:
				props[j] = NewProp(key, Int64(int64(d.u64())))
			case 2:
				idx := int(d.u32())
				if d.err == nil && idx >= len(syms) {
					return 0, fmt.Errorf("%w: checkpoint %s: dictionary index out of range", ErrCorrupt, base)
				}
				if d.err == nil {
					props[j] = NewProp(key, symValue(syms[idx]))
				}
			default:
				props[j] = Prop{Key: key}
			}
		}
		rec := a.rec()
		rec.id, rec.commit, rec.props = id, clock, props
		// nLists precedes the lists: carve the row table at that size.
		nLists := int(d.u8())
		if nLists > 2*(int(edgeTypeMax)-1) {
			return 0, fmt.Errorf("%w: checkpoint %s: %d adjacency lists on one node", ErrCorrupt, base, nLists)
		}
		if nLists > 0 {
			rec.adj.rows = a.table(nLists)
		}
		var seen uint32 // row keys read so far on this node
		for j := 0; j < nLists && d.err == nil; j++ {
			t := EdgeType(d.u8())
			dir := d.u8()
			count := int(d.u32())
			key := rowKey(t, dir == 1)
			if t == 0 || t >= edgeTypeMax || dir > 1 || seen&(1<<key) != 0 {
				return 0, fmt.Errorf("%w: checkpoint %s: bad or repeated adjacency list header", ErrCorrupt, base)
			}
			seen |= 1 << key
			if count > len(d.b)-d.pos {
				// Each entry costs at least 2 bytes; cheap sanity bound
				// before the arena allocation (varint decode below bounds-
				// checks exactly).
				return 0, fmt.Errorf("%w: checkpoint %s: adjacency list overruns file", ErrCorrupt, base)
			}
			// Zigzag-varint delta entries, mirroring the encoder (this loop
			// touches every edge in the database).
			list := a.list(count)
			prevPeer, prevStamp := int64(0), int64(0)
			for k := range list {
				prevPeer += d.varint()
				prevStamp += d.varint()
				list[k] = edgeRec{peer: ids.ID(prevPeer), stamp: prevStamp, commit: clock}
			}
			if d.err != nil {
				return 0, fmt.Errorf("%w: checkpoint %s: adjacency list overruns file", ErrCorrupt, base)
			}
			rec.adj.rows[j] = adjRow{key: key, list: list}
		}
		if d.err == nil {
			s.shards[shardIndex(id)].nodes[id] = rec
		}
	}

	nKinds := int(d.u16())
	for i := 0; i < nKinds && d.err == nil; i++ {
		k := ids.Kind(d.u8())
		count := int(d.u32())
		if d.err != nil || d.pos+count*8 > len(d.b) {
			return 0, fmt.Errorf("%w: checkpoint %s: kind list overruns file", ErrCorrupt, base)
		}
		list := make([]ids.ID, count)
		raw := d.b[d.pos : d.pos+count*8]
		for j := range list {
			list[j] = ids.ID(binary.LittleEndian.Uint64(raw[j*8:]))
		}
		d.pos += count * 8
		s.byKind[k] = list
	}

	if d.err != nil {
		return 0, fmt.Errorf("%w: checkpoint %s: %v", ErrCorrupt, base, d.err)
	}
	if d.pos != len(body) {
		return 0, fmt.Errorf("%w: checkpoint %s: %d trailing bytes", ErrCorrupt, base, len(body)-d.pos)
	}

	s.clock.Store(clock)
	s.commits.Store(clock) // one logged record per commit; approximate but monotone
	return clock, nil
}

// pruneCheckpoints removes all but the newest retainCheckpoints checkpoints
// plus any stale temp files. Pruning is an optimisation, not a correctness
// step, so errors are returned but recovery never depends on it having run.
func pruneCheckpoints(dir string) error {
	cks, err := scanCheckpoints(dir)
	if err != nil {
		return err
	}
	for i := retainCheckpoints; i < len(cks); i++ {
		if err := os.Remove(cks[i].path); err != nil {
			return err
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ckptPrefix) && strings.HasSuffix(e.Name(), ckptTmpSuffix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
