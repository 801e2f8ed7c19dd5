package bi

import (
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// slots numbers the keys one partial groups by — tags, countries, the
// persons BI4 credits, the comments BI8 climbs through — so that the
// partial counts into a plain slice indexed by slot instead of hashing a
// key per row. A slot comes from one of three tiers:
//
//  1. A dimension key (a tag ID, a country value) inside the dense range
//     [lo, lo+dense) is its distance from lo. For a dimension kind lo is
//     the kind's DimensionID of sequence 0 and dense one past the largest
//     sequence the kind lists, so only IDs of the DimensionID scheme land
//     there.
//  2. A node of the scanned kind is its scan position (KindScan.Index),
//     taken again from the node Resolve makes when the Node at hand does
//     not carry one: a base node reached through an overlay row gets the
//     slot it gets through a base row.
//  3. Any other key is numbered on first sight in a KeyTable and placed
//     after the dense range: every node on a Txn, nodes created after the
//     view's base, values and IDs outside the scheme.
//
// The tier of a key depends on the key and the reader only, so every
// partial of one execution gives a key in the dense range the same slot,
// and a finalize merges the other partials' slots past it by key (from).
// The dense range is sized from the kind's own list, never from a key or
// a value read off a row.
type slots struct {
	lo    uint64                   // tier 1: the key of slot 0
	scan  store.KindScan           // tier 2: slot i is the scan's position i
	dense int                      // slots below are tier 1 or 2
	rest  workload.KeyTable[int32] // tier 3: key -> slot - dense
}

// dimSlots returns the slots of a dimension kind's IDs.
func dimSlots[R store.Reader](r R, kind ids.Kind) slots {
	lo, n := ids.DimensionID(kind, 0), uint64(0)
	for _, id := range r.ScanKind(kind).IDs() {
		if d := uint64(id - lo); d < 1<<ids.SeqBits {
			n = max(n, d+1)
		}
	}
	return slots{lo: uint64(lo), dense: int(n)}
}

// scanSlots returns the slots of a scanned kind's nodes. A scan that
// resolves no position (every scan on a Txn) has no dense range: all its
// nodes are tier 3, and no scan-sized array stays empty.
func scanSlots(scan store.KindScan) slots {
	if !scan.Indexes() {
		return slots{scan: scan}
	}
	return slots{scan: scan, dense: scan.Len()}
}

// keyed returns a dimension key's slot (tiers 1 and 3).
func (s *slots) keyed(k uint64) int {
	if d := k - s.lo; d < uint64(s.dense) {
		return int(d)
	}
	return s.other(k)
}

// nodeSlot returns the slot of a node of the scanned kind (tiers 2 and 3).
func nodeSlot[R store.Reader](r R, s *slots, n store.Node) int {
	if i := s.scan.Index(n); i >= 0 {
		return i
	}
	if i := s.scan.Index(r.Resolve(n.ID())); i >= 0 {
		return i
	}
	return s.other(uint64(n.ID()))
}

// other returns a tier-3 slot, numbering k on first sight.
func (s *slots) other(k uint64) int {
	pos, added := s.rest.At(k)
	if added {
		*pos = int32(len(s.rest.Keys()) - 1)
	}
	return s.dense + int(*pos)
}

// key returns the key a slot stands for.
func (s *slots) key(slot int) uint64 {
	switch {
	case slot >= s.dense:
		return s.rest.Keys()[slot-s.dense]
	case s.scan.Len() > 0:
		return uint64(s.scan.IDs()[slot])
	}
	return s.lo + uint64(slot)
}

// from returns the slot in s of slot i of o, the slots of another partial
// of the same execution.
func (s *slots) from(o *slots, i int) int {
	if i < s.dense {
		return i
	}
	return s.other(o.key(i))
}

// grow returns xs extended with zero values to index slot.
func grow[T any](xs []T, slot int) []T {
	if slot < len(xs) {
		return xs
	}
	return append(xs, make([]T, slot+1-len(xs))...)
}
