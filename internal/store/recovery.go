package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ldbcsnb/internal/ids"
)

// Parallel WAL recovery. Segment headers carry firstTS, so the tail above
// a checkpoint partitions into independent decode units for free: worker
// goroutines claim segments from an atomic cursor and decode each one into
// a per-worker arena of decodedTxns (CPU-bound: CRC, varint/prop decode,
// string materialisation), then a single serial pass merges the per-lane
// streams by commit timestamp and applies them through the lean replay
// path — the same installs, kind-list and index maintenance as Commit,
// minus validation (the log was validated when written), WAL re-append and
// delta recording (no cached view exists during recovery, so the first
// CurrentView does a full rebuild regardless).
//
// Multi-lane crash semantics. A crash can leave lanes unevenly advanced:
// lane A's batch fsynced, lane B's still buffered. The merged timestamp
// sequence then shows a gap — some ts missing while later ones survive in
// other lanes. Every record above a gap is un-acknowledged in every
// durability mode (the watermark only acknowledges a commit once all
// earlier commits are durable on every lane), so recovery discards the
// records above the first gap and truncates them off their files. A gap
// whose missing timestamp maps to a lane that still holds LATER records is
// different: per-lane timestamps are monotone and torn writes only eat
// suffixes, so the missing record cannot have been lost to the crash —
// that is corruption (a deleted or bit-rotted segment), reported with the
// segment name instead of silently truncated. The single-lane layout makes
// every gap this second kind, preserving v1 strictness.

// errLogGap marks a record whose commit timestamp does not extend the
// recovered sequence where the lane structure proves the hole cannot be a
// crash artifact: a missing segment or out-of-order log.
var errLogGap = errors.New("log sequence gap")

// decodedTxn is one redo record decoded back into the exact shape Commit
// serialised — the input of the lean replay path.
type decodedTxn struct {
	ts      int64
	created []*pendingNode
	sets    []pendingProp
	edges   []pendingEdge
	dels    []pendingDel

	// Provenance for gap classification and discard truncation.
	segPath string
	lane    int
	off     int64 // record's byte offset in its segment file
}

// segDecode is one segment's decode result.
type segDecode struct {
	txns     []*decodedTxn
	skipped  int   // records at or below the checkpoint clock
	cleanLen int64 // header + every valid record (truncation point)
}

// recoverSegments decodes the records of segs (ordered by lane, seq) whose
// commit timestamps exceed ckptTS — in parallel across workers — and
// applies them in merged timestamp order. lanes is the effective lane
// count (for gap classification); workers <= 0 means GOMAXPROCS. It
// returns each lane's valid byte length of its final segment, keyed by
// lane (the truncation point for reopening).
func (s *Store) recoverSegments(segs []segmentFile, ckptTS int64, workers, lanes int, info *RecoveryInfo) (map[int]int64, error) {
	validLens := make(map[int]int64)
	if len(segs) == 0 {
		return validLens, nil
	}

	// Classify each lane's chain: headerless files are rotation crash
	// remnants only as a lane's final segment (openActiveSegment recreates
	// them); sealed segments wholly covered by the checkpoint are provable
	// from the next header alone and skipped without a scan.
	type decodeJob struct {
		sf       segmentFile
		laneLast bool
	}
	var jobs []decodeJob
	for _, run := range segmentLanes(segs) {
		for i, sf := range run {
			last := i == len(run)-1
			if sf.firstTS < 0 {
				if last {
					validLens[sf.lane] = segHeaderSize
					continue
				}
				if _, err := readSegHeader(sf.path); err != nil {
					return nil, err
				}
			}
			if !last && run[i+1].firstTS >= 0 && run[i+1].firstTS <= ckptTS+1 {
				info.SegmentsSkipped++
				continue
			}
			info.SegmentsScanned++
			jobs = append(jobs, decodeJob{sf: sf, laneLast: last})
		}
	}

	// Parallel decode: workers claim segments from an atomic cursor.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]segDecode, len(jobs))
	errs := make([]error, len(jobs))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i], errs[i] = decodeSegment(jobs[i].sf, ckptTS, jobs[i].laneLast)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	laneLastPath := make(map[string]int) // lane-last segment path -> lane
	var all []*decodedTxn
	for i, res := range results {
		info.Skipped += res.skipped
		all = append(all, res.txns...)
		if jobs[i].laneLast {
			validLens[jobs[i].sf.lane] = res.cleanLen
			laneLastPath[jobs[i].sf.path] = jobs[i].sf.lane
			info.TornBytes += jobs[i].sf.size - res.cleanLen
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ts < all[j].ts })

	// Merge-apply in timestamp order, verifying the sequence extends the
	// checkpoint clock one commit at a time.
	next := ckptTS + 1
	cut := -1
	for i, dtx := range all {
		if dtx.ts < next {
			return nil, fmt.Errorf("%w: %w: segment %s: record carries commit %d, expected %d",
				ErrCorrupt, errLogGap, filepath.Base(dtx.segPath), dtx.ts, next)
		}
		if dtx.ts > next {
			g := laneFor(next, lanes)
			for _, later := range all[i:] {
				if later.lane == g {
					return nil, fmt.Errorf("%w: %w: segment %s: record carries commit %d, expected %d (lane %d lost no suffix, so the hole is not a crash artifact)",
						ErrCorrupt, errLogGap, filepath.Base(later.segPath), later.ts, next, g)
				}
			}
			cut = i
			break
		}
		if err := s.applyDecoded(dtx); err != nil {
			return nil, fmt.Errorf("segment %s: %w", filepath.Base(dtx.segPath), err)
		}
		info.Replayed++
		next++
	}

	// Discard the un-acknowledged suffix above a crash gap: truncate each
	// touched file at its first discarded record. Lane-final segments
	// truncate via the validLen returned to openActiveSegment; sealed ones
	// are cut here, durably.
	if cut >= 0 {
		info.Discarded = len(all) - cut
		cuts := make(map[string]int64)
		for _, d := range all[cut:] {
			if cur, ok := cuts[d.segPath]; !ok || d.off < cur {
				cuts[d.segPath] = d.off
			}
		}
		for path, off := range cuts {
			if lane, ok := laneLastPath[path]; ok {
				if off < validLens[lane] {
					validLens[lane] = off
				}
				continue
			}
			if err := truncateSegment(path, off); err != nil {
				return nil, err
			}
		}
	}
	return validLens, nil
}

// truncateSegment durably cuts a sealed segment at off (discarding
// un-acknowledged records above a multi-lane crash gap).
func truncateSegment(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(off); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// decodeSegment reads one segment and decodes its records above ckptTS
// into decodedTxns (records at or below it are counted and skipped —
// their timestamp is the payload's first field, so skipping costs no prop
// decode). laneLast marks a lane's final segment, whose tail is allowed to
// be torn: a power loss can leave the unsynced tail short, zero-filled or
// garbage, so any undecodable suffix of the LAST segment ends the scan
// cleanly at the last valid record. Anywhere else an undecodable byte is
// corruption (rotation fsyncs a segment before its successor exists).
func decodeSegment(sf segmentFile, ckptTS int64, laneLast bool) (segDecode, error) {
	res := segDecode{cleanLen: segHeaderSize}
	data, err := os.ReadFile(sf.path)
	if err != nil {
		return res, err
	}
	base := filepath.Base(sf.path)
	midChain := func(n int, err error) error {
		return fmt.Errorf("segment %s: record %d: %w", base, n, err)
	}
	d := &walDecoder{b: data}
	off := int64(segHeaderSize)
	n := 0
	for off < int64(len(data)) {
		if off+8 > int64(len(data)) {
			break // torn header
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if length > 1<<30 {
			if laneLast {
				break
			}
			return res, midChain(n+1, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length))
		}
		end := off + 8 + length
		if end > int64(len(data)) {
			break // torn payload; mid-chain tears surface below as trailing bytes
		}
		payload := data[off+8 : end]
		if crc32.ChecksumIEEE(payload) != want || length < 8 {
			if laneLast {
				break
			}
			return res, midChain(n+1, ErrCorrupt)
		}
		ts := int64(binary.LittleEndian.Uint64(payload[:8]))
		if ts <= ckptTS {
			res.skipped++
		} else {
			dtx, derr := decodeTxnPayload(d, off+8, end)
			if derr != nil {
				if laneLast {
					break
				}
				return res, midChain(n+1, derr)
			}
			dtx.ts = ts
			dtx.segPath = sf.path
			dtx.lane = sf.lane
			dtx.off = off
			res.txns = append(res.txns, dtx)
		}
		n++
		off = end
		res.cleanLen = off
	}
	if !laneLast && res.cleanLen != int64(len(data)) {
		return res, fmt.Errorf("%w: segment %s: %d undecodable trailing bytes mid-log (records resume in a later segment)",
			ErrCorrupt, base, int64(len(data))-res.cleanLen)
	}
	return res, nil
}

// decodeTxnPayload decodes the ops of one record's payload — d.b[start:end],
// timestamp already consumed by the caller — sharing d's string arena
// across the whole segment.
func decodeTxnPayload(d *walDecoder, start, end int64) (*decodedTxn, error) {
	d.pos = int(start)
	d.err = nil
	dtx := &decodedTxn{}
	_ = d.u64() // commit timestamp (caller read it)
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		switch d.u8() {
		case 1:
			id := ids.ID(d.u64())
			np := int(d.u16())
			props := make(Props, 0, np)
			for j := 0; j < np; j++ {
				props = append(props, d.prop())
			}
			dtx.created = append(dtx.created, &pendingNode{id: id, props: props})
		case 2:
			id := ids.ID(d.u64())
			p := d.prop()
			dtx.sets = append(dtx.sets, pendingProp{id: id, key: p.Key, val: p.Val})
		case 3:
			from := ids.ID(d.u64())
			t := EdgeType(d.u8())
			to := ids.ID(d.u64())
			stamp := int64(d.u64())
			sym := d.u8() == 1
			if dtx.edges == nil {
				// One allocation per record: the ops left are edges and
				// deletions, an edge op is 27 bytes.
				dtx.edges = make([]pendingEdge, 0, min(n-i, 1+(int(end)-d.pos)/27))
			}
			dtx.edges = append(dtx.edges, pendingEdge{from: from, to: to, t: t, stamp: stamp, sym: sym})
		case 4:
			from := ids.ID(d.u64())
			t := EdgeType(d.u8())
			to := ids.ID(d.u64())
			dtx.dels = append(dtx.dels, pendingDel{from: from, to: to, t: t})
		default:
			return nil, fmt.Errorf("%w: unknown op kind", ErrCorrupt)
		}
	}
	if d.err != nil || d.pos > int(end) {
		return nil, fmt.Errorf("%w: truncated ops", ErrCorrupt)
	}
	return dtx, nil
}

// applyDecoded installs one decoded redo record through the lean replay
// path: the same shard installs, kind-list appends, adjacency writes and
// secondary-index maintenance as Commit's critical section, minus
// validation, WAL append and delta recording. Runs serially in timestamp
// order on a store no reader observes yet.
func (s *Store) applyDecoded(dtx *decodedTxn) error {
	ts := dtx.ts
	// Created nodes were serialised in sorted ID order by Commit, so the
	// per-kind scan lists rebuild identically.
	for _, n := range dtx.created {
		sh := s.shardFor(n.id)
		sh.mu.Lock()
		sh.nodes[n.id] = &nodeRec{id: n.id, versions: []nodeVersion{{commit: ts, props: n.props}}}
		sh.mu.Unlock()
	}
	if len(dtx.created) > 0 {
		s.kindMu.Lock()
		for _, n := range dtx.created {
			s.byKind[n.id.Kind()] = append(s.byKind[n.id.Kind()], n.id)
		}
		s.kindMu.Unlock()
	}
	for _, set := range dtx.sets {
		sh := s.shardFor(set.id)
		sh.mu.Lock()
		rec := sh.nodes[set.id]
		if rec == nil {
			sh.mu.Unlock()
			return fmt.Errorf("%w: set-prop on unknown node %v", ErrCorrupt, set.id)
		}
		last := rec.versions[len(rec.versions)-1]
		next := last.props.with(set.key, set.val)
		rec.versions = append(rec.versions, nodeVersion{commit: ts, props: next})
		sh.mu.Unlock()
	}
	for _, pe := range dtx.edges {
		s.installEdge(nil, pe.from, pe.t, pe.to, pe.stamp, ts, false)
		if pe.sym {
			s.installEdge(nil, pe.to, pe.t, pe.from, pe.stamp, ts, false)
		} else {
			s.installEdge(nil, pe.to, pe.t, pe.from, pe.stamp, ts, true)
		}
	}
	for _, pd := range dtx.dels {
		s.applyDelete(nil, pd, ts)
	}
	s.indexNewNodes(dtx.created)
	s.clock.Store(ts)
	s.commits.Add(1)
	return nil
}
