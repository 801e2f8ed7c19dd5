package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ldbcsnb/internal/ids"
)

// Streaming WAL recovery. Segment headers carry firstTS, so segments wholly
// covered by the checkpoint are skipped from their headers alone; the
// surviving tail is walked in sequence order, one record at a time: check
// the CRC, decode (decodeTxnPayload — the only decoder of redo records) into
// the commit's write set, the CommitDelta Commit serialised, check that the
// commit timestamp extends the recovered clock by exactly one, and apply it
// through Commit's own installer (Store.install), minus validation (the log
// was validated when written), WAL re-append and delta recording (no cached
// view exists during recovery, so the first CurrentView does a full rebuild
// regardless). install keeps the created nodes' property lists and copies
// everything else, so one CommitDelta serves a whole segment.
//
// Commit timestamps in the log are consecutive and torn writes only eat a
// suffix of the final segment, so a record that does not carry the next
// timestamp cannot be a crash artifact: it is corruption (a deleted or
// bit-rotted segment), reported with the segment name.

// errLogGap marks a record whose commit timestamp does not extend the
// recovered sequence: a missing segment or out-of-order log.
var errLogGap = errors.New("log sequence gap")

// recoverSegments replays the records of segs (scanSegments order) whose
// commit timestamps exceed ckptTS onto s, whose clock is ckptTS. It returns
// the valid byte length of the final segment (the truncation point for
// reopening).
func (s *Store) recoverSegments(segs []segmentFile, ckptTS int64, info *RecoveryInfo) (int64, error) {
	validLen := int64(segHeaderSize)
	for i, sf := range segs {
		last := i == len(segs)-1
		// A headerless file is a rotation crash remnant only as the final
		// segment (openActiveSegment recreates it).
		if sf.firstTS < 0 {
			if last {
				break
			}
			if _, err := readSegHeader(sf.path); err != nil {
				return 0, err
			}
		}
		// A sealed segment wholly covered by the checkpoint is provable from
		// the next header alone and skipped without a scan.
		if !last && segs[i+1].firstTS >= 0 && segs[i+1].firstTS <= ckptTS+1 {
			info.SegmentsSkipped++
			continue
		}
		info.SegmentsScanned++
		cleanLen, err := s.replaySegment(sf, ckptTS, last, info)
		if err != nil {
			return 0, err
		}
		if last {
			validLen = cleanLen
			info.TornBytes = sf.size - cleanLen
		}
	}
	return validLen, nil
}

// replaySegment reads one segment and applies its records above ckptTS in
// file order (records at or below it are counted and skipped — their
// timestamp is the payload's first field, so skipping costs no decode). It
// returns the clean length: header plus every valid record. last marks the
// final segment, whose tail is allowed to be torn: a power loss can leave
// the unsynced tail short, zero-filled or garbage, so a short record or a
// length/CRC failure in the LAST segment ends the scan cleanly at the last
// valid record. Anywhere else such a record is corruption (rotation fsyncs a
// segment before its successor exists), and so, in every segment, is a
// CRC-valid record the decoder rejects.
func (s *Store) replaySegment(sf segmentFile, ckptTS int64, last bool, info *RecoveryInfo) (int64, error) {
	data, err := os.ReadFile(sf.path)
	if err != nil {
		return 0, err
	}
	base := filepath.Base(sf.path)
	d := &walDecoder{b: data}
	cleanLen := int64(segHeaderSize)
	rec := &CommitDelta{}
	for n := 1; cleanLen+8 <= int64(len(data)); n++ {
		off := cleanLen
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		end := off + 8 + length
		if end > int64(len(data)) {
			break // torn payload; mid-chain tears surface below as trailing bytes
		}
		payload := data[off+8 : end]
		if length < 8 || length > 1<<30 || crc32.ChecksumIEEE(payload) != want {
			if last {
				break
			}
			return 0, fmt.Errorf("segment %s: record %d: %w", base, n, ErrCorrupt)
		}
		if int64(binary.LittleEndian.Uint64(payload)) <= ckptTS {
			info.Skipped++
			cleanLen = end
			continue
		}
		// A tear truncates or garbles bytes; it does not produce a matching
		// CRC. A CRC-valid record the decoder rejects was written that way,
		// so it is corruption in the final segment too — ending the log
		// there would silently drop it and every acknowledged commit after.
		if err := decodeTxnPayload(d, off+8, end, rec); err != nil {
			return 0, fmt.Errorf("segment %s: record %d: %w", base, n, err)
		}
		if next := s.clock.Load() + 1; rec.ts != next {
			return 0, fmt.Errorf("%w: %w: segment %s: record carries commit %d, expected %d",
				ErrCorrupt, errLogGap, base, rec.ts, next)
		}
		// Created nodes were serialised in Commit's sorted ID order, so the
		// per-kind scan lists rebuild identically. No reader observes the
		// store yet.
		s.install(rec)
		s.clock.Store(rec.ts)
		s.commits.Add(1)
		info.Replayed++
		cleanLen = end
	}
	if !last && cleanLen != int64(len(data)) {
		return 0, fmt.Errorf("%w: segment %s: %d undecodable trailing bytes mid-log (records resume in a later segment)",
			ErrCorrupt, base, int64(len(data))-cleanLen)
	}
	return cleanLen, nil
}

// decodeTxnPayload decodes one record's payload — d.b[start:end] — into
// rec, reusing rec's slices and sharing d's string arena across the whole
// segment. It is the only decoder of redo records and trusts nothing the
// CRC does not prove: a count that pre-sizes a slice is bounded by the bytes
// left in the payload, and edge types are range-checked.
func decodeTxnPayload(d *walDecoder, start, end int64, rec *CommitDelta) error {
	d.pos = int(start)
	d.err = nil
	rec.ts = int64(d.u64())
	rec.nodes, rec.edges = rec.nodes[:0], rec.edges[:0]
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		switch d.u8() {
		case 1:
			id := ids.ID(d.u64())
			np := int(d.u16())
			if np > (int(end)-d.pos)/2 { // a prop is at least key + value kind
				return fmt.Errorf("%w: truncated ops", ErrCorrupt)
			}
			var props Props // exactly sized, nil when empty (Props.exact)
			if np > 0 {
				props = make(Props, np)
				for j := range props {
					props[j] = d.prop()
				}
			}
			rec.nodes = append(rec.nodes, pendingNode{id: id, props: props})
		case 3:
			from := ids.ID(d.u64())
			t := d.edgeType()
			to := ids.ID(d.u64())
			stamp := int64(d.u64())
			sym := d.u8() == 1
			rec.edges = append(rec.edges, pendingEdge{from: from, to: to, t: t, stamp: stamp, sym: sym})
		default: // including the retired kinds 2 (set-prop) and 4 (del-edge)
			return fmt.Errorf("%w: unknown op kind", ErrCorrupt)
		}
	}
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if d.pos > int(end) {
		return fmt.Errorf("%w: truncated ops", ErrCorrupt)
	}
	return nil
}

// edgeType reads an edge-type byte and fails the decode on a value outside
// the schema: replay installs rows without Txn.addEdge's check, and an
// out-of-range type indexes past the adjacency tables at the first view
// build.
func (d *walDecoder) edgeType() EdgeType {
	t := EdgeType(d.u8())
	if d.err == nil && (t == 0 || t >= edgeTypeMax) {
		d.err = fmt.Errorf("invalid edge type %d", uint8(t))
	}
	return t
}
