package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Segmented write-ahead log. A durable store (see Open in persist.go) keeps
// its redo log not as one unbounded stream but as a directory of numbered
// segment files: the active segment receives appends, and once it crosses
// the rotation threshold it is sealed (flushed, fsynced, closed) and a new
// segment opened. Sealing between records — a record never spans two
// segments — makes each sealed segment an immutable, independently
// verifiable unit, which is what checkpoint truncation needs: a segment
// whose records are all covered by the newest durable checkpoint can be
// deleted wholesale, bounding recovery work and disk use.
//
// Format (docs/FORMATS.md is the authoritative spec), little-endian:
//
//	segment  := header record*
//	header   := magic:u32 "SWAL" | version:u16 | reserved:u16 | firstTS:u64
//	record   := len:u32 crc:u32 payload          (identical to wal.go)
//
// firstTS is the commit timestamp of the first record appended to the
// segment. Commit timestamps in the log are consecutive, and a rotation
// stamps the new segment with a firstTS above every record of the segment
// it seals, so lastTS(N) = firstTS(N+1)-1: whether a sealed segment is
// wholly covered by a checkpoint at timestamp C is a pure header
// computation — firstTS(N+1) <= C+1 — with no record scan.
const (
	segMagic      = 0x4C415753 // "SWAL"
	segVersion    = 1
	segHeaderSize = 16
)

// segPrefix/segSuffix name segment files wal-<seq>.seg. seq is a monotone
// counter, zero-padded so lexical order equals numeric order.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segName(seq uint64) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix)
}

// ErrMultiLaneWAL reports a WAL directory (or a request for more than one
// lane) from the retired multi-lane layout, whose wal-<lane>-<seq>.seg
// files interleave with wal-<seq>.seg by commit timestamp. The log has one
// lane; replaying only the files this build understands would drop the
// commits held in the others, so Open refuses.
var ErrMultiLaneWAL = errors.New("store: multi-lane WAL is not supported")

// segmentFile describes one on-disk WAL segment.
type segmentFile struct {
	seq     uint64
	firstTS int64
	path    string
	size    int64
}

// scanSegments lists the WAL directory's segment files in sequence order
// and parses their headers. A lane-qualified name wal-<lane>-<seq>.seg (a
// '-' in the stem) fails with ErrMultiLaneWAL; other names that do not
// parse are ignored. A file too short to hold a header, or holding an
// invalid one, is reported with firstTS < 0 and left to the caller's policy
// (the final segment may legitimately be a crash remnant; an earlier one is
// corruption).
func scanSegments(dir string) ([]segmentFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		stem := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		if strings.Contains(stem, "-") {
			return nil, fmt.Errorf("%w: segment %s", ErrMultiLaneWAL, name)
		}
		seq, err := strconv.ParseUint(stem, 10, 64)
		if err != nil {
			continue
		}
		sf := segmentFile{seq: seq, firstTS: -1, path: filepath.Join(dir, name)}
		if info, err := e.Info(); err == nil {
			sf.size = info.Size()
		}
		if ts, err := readSegHeader(sf.path); err == nil {
			sf.firstTS = ts
		}
		segs = append(segs, sf)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// readSegHeader validates a segment file's header and returns its firstTS.
func readSegHeader(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() //snb:errok read-only handle, no durability at stake
	var hdr [segHeaderSize]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: segment %s: short header", ErrCorrupt, filepath.Base(path))
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != segMagic {
		return 0, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != segVersion {
		return 0, fmt.Errorf("store: segment %s: unsupported version %d", filepath.Base(path), v)
	}
	return int64(binary.LittleEndian.Uint64(hdr[8:16])), nil
}

// writeSegHeader writes a fresh segment header to f (which must be empty
// and positioned at 0).
func writeSegHeader(f *os.File, firstTS int64) error {
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(firstTS))
	_, err := f.Write(hdr[:])
	return err
}

// walSegments is the file-backed sink of the log: the active segment plus
// rotation state. All mutating methods are called from the flusher
// goroutine (or, before it starts, from Open), so there is no internal
// locking; rotations is atomic because Stats reads it concurrently.
type walSegments struct {
	dir   string
	limit int64 // rotation threshold in bytes (logical, including header)

	f    *os.File
	seq  uint64
	size int64 // logical bytes written to the active segment (ahead of flush)

	rotations atomic.Int64
}

// defaultSegmentBytes is the rotation threshold when PersistOptions leaves
// SegmentBytes zero: small enough that checkpoint truncation keeps the tail
// short, large enough that rotation fsyncs stay rare.
const defaultSegmentBytes = 4 << 20

// openActiveSegment opens the last scanned segment for appending after
// recovery truncated its torn tail to validLen, or creates segment 1 when
// the directory is empty. segs is scanSegments' listing. nextTS is a commit
// timestamp above every recovered record (the recovered clock + 1), used
// for fresh headers.
func openActiveSegment(dir string, limit int64, segs []segmentFile, validLen int64, nextTS int64) (*walSegments, error) {
	if limit <= 0 {
		limit = defaultSegmentBytes
	}
	ws := &walSegments{dir: dir, limit: limit}
	if len(segs) == 0 {
		ws.seq = 1
		return ws, ws.create(nextTS)
	}
	last := segs[len(segs)-1]
	if last.firstTS < 0 {
		// Crash remnant: the file was created but its header never became
		// durable (rotation syncs the previous segment before creating the
		// next, so no durable record can be lost with it). Recreate it.
		ws.seq = last.seq
		if err := os.Remove(last.path); err != nil {
			return nil, err
		}
		return ws, ws.create(nextTS)
	}
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	ws.f = f
	ws.seq = last.seq
	ws.size = validLen
	return ws, nil
}

// create opens a fresh active segment file ws.seq with the given firstTS
// and makes its directory entry durable.
func (ws *walSegments) create(firstTS int64) error {
	path := filepath.Join(ws.dir, segName(ws.seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegHeader(f, firstTS); err != nil {
		return errors.Join(err, f.Close())
	}
	ws.f = f
	ws.size = segHeaderSize
	return syncDir(ws.dir)
}

// maybeRotate seals the active segment and opens the next one when
// appending recLen more bytes would cross the rotation threshold. nextTS is
// the commit timestamp of the incoming record — the new segment's firstTS.
// An active segment holding only its header never rotates (a record larger
// than the threshold gets a segment to itself).
func (ws *walSegments) maybeRotate(bw *bufio.Writer, recLen int64, nextTS int64) error {
	if ws.size <= segHeaderSize || ws.size+recLen <= ws.limit {
		return nil
	}
	return ws.rotate(bw, nextTS)
}

// rotate seals the active segment — flush, fsync, close — and opens the
// next one. The fsync-before-create ordering is the recovery invariant: if
// segment N+1 exists on disk, every record of segment N is durable, so the
// coverage rule lastTS(N) = firstTS(N+1)-1 can trust headers alone.
func (ws *walSegments) rotate(bw *bufio.Writer, nextTS int64) error {
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := ws.f.Sync(); err != nil {
		return err
	}
	if err := ws.f.Close(); err != nil {
		return err
	}
	ws.seq++
	ws.rotations.Add(1)
	if err := ws.create(nextTS); err != nil {
		return err
	}
	bw.Reset(ws.f)
	return nil
}

// sync flushes buffered records and fsyncs the active segment: every
// previously appended record is durable when it returns.
func (ws *walSegments) sync(bw *bufio.Writer) error {
	if err := bw.Flush(); err != nil {
		return err
	}
	return ws.f.Sync()
}

// close syncs and closes the active segment.
func (ws *walSegments) close(bw *bufio.Writer) error {
	if err := ws.sync(bw); err != nil {
		return err
	}
	return ws.f.Close()
}

// removeCoveredSegments deletes sealed segments wholly covered by a durable
// checkpoint at timestamp ckptTS: segment i is removable when segment i+1
// exists and starts at or before ckptTS+1. The active segment is never
// removed. Deletion runs in sequence order, so a crash mid-way leaves a
// contiguous suffix — recovery never sees a gap. Returns the number
// removed.
func removeCoveredSegments(dir string, ckptTS int64) (int, error) {
	segs, err := scanSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		next := segs[i+1]
		if next.firstTS < 0 || next.firstTS > ckptTS+1 {
			break
		}
		if err := os.Remove(segs[i].path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// syncDir fsyncs a directory so renames and removals within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// The Sync verdict below is the durability report; closing a directory
	// fd afterwards has nothing left to flush.
	defer d.Close() //snb:errok
	return d.Sync()
}
