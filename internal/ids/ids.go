// Package ids implements SNB entity identifier schemes.
//
// Two identifier properties from the paper matter for the workload:
//
//  1. Time-ordered IDs (§2.4, footnote 3): URIs/IDs for an entity kind follow
//     the time dimension, realised by encoding the creation timestamp in the
//     identifier in an order-preserving way. §3 notes this gives the final
//     date-selection of Query 9 high locality and removes a sort.
//  2. The studied-location correlation dimension (§2.3) packs three values in
//     one 32-bit key: Z-order of the university's city (bits 31-24), the
//     university ID (bits 23-12) and the studied year (bits 11-0).
package ids

// Kind enumerates SNB entity kinds that receive IDs.
type Kind uint8

// Entity kinds. The numeric values participate in the composite ID, so they
// are stable API.
const (
	KindPerson Kind = iota + 1
	KindForum
	KindPost
	KindComment
	KindTag
	KindTagClass
	KindPlace
	KindOrganisation
	KindPhoto

	// KindLimit is one past the last kind: a table indexed by kind has
	// this many entries.
	KindLimit
)

var kindNames = map[Kind]string{
	KindPerson:       "Person",
	KindForum:        "Forum",
	KindPost:         "Post",
	KindComment:      "Comment",
	KindTag:          "Tag",
	KindTagClass:     "TagClass",
	KindPlace:        "Place",
	KindOrganisation: "Organisation",
	KindPhoto:        "Photo",
}

// String returns the entity kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "Unknown"
}

// ID is a 64-bit SNB entity identifier:
//
//	bits 63-56: Kind
//	bits 55-16: creation timestamp bucket (order-preserving, 40 bits,
//	            minutes since the simulation epoch)
//	bits 15-0 + overflow via sequence widening: per-bucket sequence
//
// For dimension-like entities (tags, places, organisations) the timestamp
// bucket is 0 and the ID is just kind+sequence.
type ID uint64

// TimeBits is the width of the order-preserving time bucket inside an ID.
const TimeBits = 40

// SeqBits is the width of the per-bucket sequence number.
const SeqBits = 16

// Compose builds an ID from kind, minutes-since-epoch bucket and sequence.
// Sequence values that overflow SeqBits spill upward into the time field;
// the generator allocates sequences densely enough that this never happens
// at supported scale factors, and Compose guards it with a panic because a
// silent spill would break time-ordering.
func Compose(k Kind, minuteBucket int64, seq uint32) ID {
	if minuteBucket < 0 {
		minuteBucket = 0
	}
	if minuteBucket >= 1<<TimeBits {
		panic("ids: minute bucket overflows time field")
	}
	if uint64(seq) >= 1<<SeqBits {
		panic("ids: sequence overflows")
	}
	return ID(uint64(k)<<56 | uint64(minuteBucket)<<SeqBits | uint64(seq))
}

// Kind extracts the entity kind.
func (id ID) Kind() Kind { return Kind(id >> 56) }

// MinuteBucket extracts the order-preserving time bucket.
func (id ID) MinuteBucket() int64 { return int64(id>>SeqBits) & (1<<TimeBits - 1) }

// Seq extracts the per-bucket sequence.
func (id ID) Seq() uint32 { return uint32(id & (1<<SeqBits - 1)) }

// Less orders IDs of equal kind by creation time then sequence — the
// property that Query 9's date filter exploits.
func (id ID) Less(other ID) bool { return id < other }

// Allocator hands out IDs for one Kind, preserving time order as long as
// callers allocate in non-decreasing timestamp order per bucket. It is not
// safe for concurrent use; the generator shards allocators per worker with
// disjoint sequence ranges instead (see WorkerAllocator).
type Allocator struct {
	kind       Kind
	lastBucket int64
	seq        uint32
}

// NewAllocator returns an allocator for the given kind.
func NewAllocator(k Kind) *Allocator { return &Allocator{kind: k} }

// Alloc returns the next ID for an entity created at the given simulation
// time in milliseconds since the simulation epoch.
func (a *Allocator) Alloc(simMillis int64) ID {
	bucket := simMillis / 60000
	if bucket != a.lastBucket {
		a.lastBucket = bucket
		a.seq = 0
	}
	id := Compose(a.kind, bucket, a.seq)
	a.seq++
	return id
}

// WorkerAllocator allocates IDs deterministically for a sharded generator:
// worker w of n workers uses sequence numbers w, w+n, w+2n, ... within each
// minute bucket, so the union over workers is dense and collision-free no
// matter how entities are partitioned — the determinism guarantee of §2.4.
type WorkerAllocator struct {
	kind    Kind
	worker  uint32
	workers uint32
	buckets map[int64]uint32
}

// NewWorkerAllocator returns an allocator for worker w of n.
func NewWorkerAllocator(k Kind, worker, workers int) *WorkerAllocator {
	if workers <= 0 || worker < 0 || worker >= workers {
		panic("ids: invalid worker sharding")
	}
	return &WorkerAllocator{
		kind:    k,
		worker:  uint32(worker),
		workers: uint32(workers),
		buckets: make(map[int64]uint32),
	}
}

// Alloc returns the next ID for this worker at the given simulation time.
func (a *WorkerAllocator) Alloc(simMillis int64) ID {
	bucket := simMillis / 60000
	n := a.buckets[bucket]
	a.buckets[bucket] = n + 1
	return Compose(a.kind, bucket, a.worker+n*a.workers)
}

// DimensionID builds an ID for a dimension-like entity (tag, place,
// organisation). Dimension tables do not scale with persons or time (§2),
// so a 16-bit sequence is ample; Compose panics on overflow.
func DimensionID(k Kind, seq uint32) ID {
	return Compose(k, 0, seq)
}
