package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Write-ahead commit log. Virtuoso and Sparksee are durable systems; the
// benchmark's update stream is replayed against committed state, so the
// engine provides an append-only redo log: every committed transaction is
// serialised (length-prefixed, CRC-protected) in commit order, and Open
// rebuilds a store by replaying the log, stopping cleanly at a torn tail
// (e.g. after a crash mid-append).
//
// Format (docs/FORMATS.md is the authoritative spec), little-endian:
//
//	record  := len:u32 crc:u32 payload
//	payload := commitTS:u64 nOps:u32 op*
//	op      := kind:u8 body
//	  kind 1 create-node: id:u64 nProps:u16 prop*
//	  kind 3 add-edge:    from:u64 type:u8 to:u64 stamp:u64 sym:u8
//	  (kinds 2, set-prop, and 4, del-edge, are retired: node properties are
//	  write-once and edges insert-only, and the decoder rejects both like
//	  any unknown kind)
//	prop    := key:u8 valKind:u8 (int:u64 | len:u32 bytes)
//
// This file holds the record codec: appendCommitRecord is the one encoder
// (called by the group-commit flusher, groupcommit.go) and walDecoder the
// byte reader under the one decoder (decodeTxnPayload, recovery.go). The
// log itself lives in segment files (segment.go) that Open (persist.go)
// attaches and recovers.

// ErrCorrupt reports a CRC mismatch mid-log (not a clean torn tail).
var ErrCorrupt = errors.New("store: corrupt WAL record")

// FlushWAL flushes buffered log records to the active segment file. A
// store without a log (New, not Open) has nothing to flush.
//
// Durability guarantee: flushed records have left the process but are NOT
// fsynced — after FlushWAL a crash of the process cannot lose them, but a
// crash of the machine can. SyncWAL (or PersistOptions.WALSync=SyncCommit)
// adds the fsync barrier.
func (s *Store) FlushWAL() error {
	if s.gwal == nil {
		return nil
	}
	return s.gwal.barrier(walBarrier{flush: true})
}

// SyncWAL flushes buffered log records and fsyncs the active segment: when
// it returns nil, every commit that completed before the call is durable on
// disk.
func (s *Store) SyncWAL() error {
	if s.gwal == nil {
		return nil
	}
	return s.gwal.barrier(walBarrier{sync: true})
}

// rotateWAL seals the active WAL segment and opens the next one, so that
// every previously logged record lives in a sealed (immutable, fsynced)
// segment. Used by the checkpointer: a checkpoint taken after rotation
// covers every sealed segment, making them truncatable. An active segment
// that is still empty is kept.
func (s *Store) rotateWAL() error {
	if s.gwal == nil {
		return nil
	}
	return s.gwal.barrier(walBarrier{rotate: true})
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v)), uint32(v>>32))
}

func appendProp(b []byte, p Prop) []byte {
	b = append(b, byte(p.Key))
	switch p.k {
	case kindInt:
		b = append(b, 1)
		b = appendU64(b, uint64(p.bits))
	case kindString:
		// WAL records carry strings inline (not interned symbols), so the
		// format — and v1-era tail replay — is independent of any process's
		// symbol assignment.
		s := p.Val().Str()
		b = append(b, 2)
		b = appendU32(b, uint32(len(s)))
		b = append(b, s...)
	default:
		b = append(b, 0)
	}
	return b
}

// appendCommitRecord serialises one commit's write set onto b — 8-byte
// length/CRC header plus payload, header patched in once the payload is
// complete — and returns the grown slice. Appending into the flusher's
// reused record buffer keeps the flusher allocation-free once the buffer
// has warmed (TestDepositZeroAlloc pins this).
//
//snb:noalloc
func appendCommitRecord(buf []byte, d *CommitDelta) []byte {
	start := len(buf)
	b := append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	b = appendU64(b, uint64(d.ts))
	b = appendU32(b, uint32(len(d.nodes)+len(d.edges)))
	for _, n := range d.nodes {
		b = append(b, 1)
		b = appendU64(b, uint64(n.id))
		b = appendU16(b, uint16(len(n.props)))
		for _, p := range n.props {
			b = appendProp(b, p)
		}
	}
	for _, e := range d.edges {
		b = append(b, 3)
		b = appendU64(b, uint64(e.from))
		b = append(b, byte(e.t))
		b = appendU64(b, uint64(e.to))
		b = appendU64(b, uint64(e.stamp))
		sym := byte(0)
		if e.sym {
			sym = 1
		}
		b = append(b, sym)
	}
	payload := b[start+8:]
	binary.LittleEndian.PutUint32(b[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:start+8], crc32.ChecksumIEEE(payload))
	return b
}

type walDecoder struct {
	b   []byte
	pos int
	err error

	// String-materialisation arena: str converts the input in chunks and
	// hands out substrings, so decoding n property strings costs O(n/chunk)
	// allocations instead of n. Used by checkpoint restore, where string
	// count is proportional to the dataset; zero-valued decoders fall back
	// lazily on first use.
	sarena       string
	sstart, send int
}

// strChunk is the string-arena granularity. All substrings of one chunk
// share its backing, so a chunk is only reclaimable as a whole — fine for
// recovery (everything decoded stays live) and bounded for WAL replay.
const strChunk = 1 << 15

func (d *walDecoder) u8() byte {
	if d.err != nil || d.pos+1 > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *walDecoder) u16() uint16 {
	if d.err != nil || d.pos+2 > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.pos:])
	d.pos += 2
	return v
}

func (d *walDecoder) u32() uint32 {
	if d.err != nil || d.pos+4 > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *walDecoder) u64() uint64 {
	if d.err != nil || d.pos+8 > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

// uvarint reads one unsigned varint (checkpoint v2 adjacency and counts).
func (d *walDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.pos += n
	return v
}

// varint reads one zigzag-coded signed varint.
func (d *walDecoder) varint() int64 { return unzigzag(d.uvarint()) }

func (d *walDecoder) str(n int) string {
	if d.err != nil || d.pos+n > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	if d.pos+n > d.send {
		end := d.pos + strChunk
		if e := d.pos + n; e > end {
			end = e
		}
		if end > len(d.b) {
			end = len(d.b)
		}
		d.sarena = string(d.b[d.pos:end])
		d.sstart, d.send = d.pos, end
	}
	v := d.sarena[d.pos-d.sstart : d.pos-d.sstart+n]
	d.pos += n
	return v
}

func (d *walDecoder) prop() Prop {
	key := PropKey(d.u8())
	switch d.u8() {
	case 1:
		return NewProp(key, Int64(int64(d.u64())))
	case 2:
		n := int(d.u32())
		return NewProp(key, String(d.str(n)))
	default:
		return Prop{Key: key}
	}
}
