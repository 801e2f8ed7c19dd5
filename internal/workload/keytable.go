package workload

import (
	"math/bits"
	"slices"
)

// KeyTable maps 64-bit keys to values kept densely in first-seen order: the
// one hashed keyed-scratch structure of the query layers (workload, bi and
// the declarative executor). Its slots are open-addressed — Fibonacci
// hashed, linearly probed, at most half full — and each holds a key, the
// generation that wrote it and the key's position in Keys/Vals, so a probe
// touches one slot. Reset is O(1): it starts a new generation, in which
// older slots read as empty, and clears the slots only when the generation
// wraps. A finalize walks Keys and Vals instead of ranging over a map. The
// zero value is an empty table; a table belongs to one goroutine.
type KeyTable[V any] struct {
	slots []keySlot // len is 0 or a power of two
	shift uint      // 64 - log2(len(slots))
	gen   uint32    // a slot is live only while its gen matches
	keys  []uint64
	vals  []V
}

type keySlot struct {
	key uint64
	gen uint32
	pos int32 // index in keys/vals
}

// At returns the value of k, adding a zero value on first sight, and
// whether it did. Adding a key may move the values, so the pointer is good
// until the next call that adds one.
func (t *KeyTable[V]) At(k uint64) (v *V, added bool) {
	h, found := t.probe(k)
	if found {
		return &t.vals[t.slots[h].pos], false
	}
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
		h, _ = t.probe(k)
	}
	t.slots[h] = keySlot{key: k, gen: t.gen, pos: int32(len(t.keys))}
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, *new(V))
	return &t.vals[len(t.vals)-1], true
}

// Find returns the value of k, or nil if k was not added since the last
// Reset.
//
//snb:noalloc
func (t *KeyTable[V]) Find(k uint64) *V {
	if h, found := t.probe(k); found {
		return &t.vals[t.slots[h].pos]
	}
	return nil
}

// Pos returns k's position in Keys, or -1 if k was not added since the
// last Reset. A table that keys a BFS's visited nodes in discovery order
// answers a node's layer with it.
//
//snb:noalloc
func (t *KeyTable[V]) Pos(k uint64) int {
	if h, found := t.probe(k); found {
		return int(t.slots[h].pos)
	}
	return -1
}

// Keys returns the keys in first-seen order, valid until the next add or
// Reset. Callers must not append to it.
func (t *KeyTable[V]) Keys() []uint64 { return t.keys }

// Vals returns the values parallel to Keys, under the same rules.
func (t *KeyTable[V]) Vals() []V { return t.vals }

// Reset empties the table, keeping its capacity.
func (t *KeyTable[V]) Reset() {
	t.keys, t.vals = t.keys[:0], t.vals[:0]
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// probe returns the slot holding k in the current generation (found), or
// the empty slot where k would go (none in a table without slots).
//
//snb:noalloc
func (t *KeyTable[V]) probe(k uint64) (h int, found bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	for h = int((k * 0x9E3779B97F4A7C15) >> t.shift); ; h = (h + 1) & (len(t.slots) - 1) {
		if s := &t.slots[h]; s.gen != t.gen || s.key == k {
			return h, s.gen == t.gen
		}
	}
}

// grow doubles the slots (16 the first time) into a fresh generation,
// re-placing every key, and reserves room for as many keys and values as
// they may hold, so the adds before the next grow allocate nothing.
func (t *KeyTable[V]) grow() {
	size := max(16, 2*len(t.slots))
	t.slots = make([]keySlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.gen = 1
	t.keys = slices.Grow(t.keys, size/2-len(t.keys))
	t.vals = slices.Grow(t.vals, size/2-len(t.vals))
	for pos, k := range t.keys {
		h, _ := t.probe(k)
		t.slots[h] = keySlot{key: k, gen: t.gen, pos: int32(pos)}
	}
}
