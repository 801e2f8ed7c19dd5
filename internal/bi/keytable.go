package bi

import (
	"math/bits"
	"slices"
)

// keyTable maps fixed-width keys to values kept densely in first-seen
// order: the per-row structure of the BI partials. Lookups go through an
// open-addressed table of positions into keys/vals — Fibonacci hashed,
// linearly probed, kept at most half full, the shape of the store's ID ->
// ordinal table — so a row pays a multiply and a probe or two instead of a
// Go map operation, and a finalize walks keys and vals in first-seen order
// rather than iterating a map. The zero value is an empty table.
type keyTable[V any] struct {
	slots []int32 // position+1 in keys/vals; 0 = empty; len is a power of two
	shift uint    // 64 - log2(len(slots))
	keys  []uint64
	vals  []V
}

// at returns the value of k, adding a zero value on first sight. Adding a
// key may move the values, so the pointer is good until the next call that
// adds one.
func (t *keyTable[V]) at(k uint64) *V {
	if len(t.slots) > 0 {
		for h := t.home(k); ; h = (h + 1) & (len(t.slots) - 1) {
			pos := t.slots[h] - 1
			if pos < 0 {
				break
			}
			if t.keys[pos] == k {
				return &t.vals[pos]
			}
		}
	}
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, *new(V))
	t.place(len(t.keys) - 1)
	return &t.vals[len(t.vals)-1]
}

// grow doubles the table (16 slots the first time), re-placing every key,
// and reserves room for as many keys and values as it may hold before it
// grows again, so an insert in between allocates nothing.
func (t *keyTable[V]) grow() {
	size := max(16, 2*len(t.slots))
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.keys = slices.Grow(t.keys, size/2-len(t.keys))
	t.vals = slices.Grow(t.vals, size/2-len(t.vals))
	for pos := range t.keys {
		t.place(pos)
	}
}

func (t *keyTable[V]) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

func (t *keyTable[V]) place(pos int) {
	h := t.home(t.keys[pos])
	for t.slots[h] != 0 {
		h = (h + 1) & (len(t.slots) - 1)
	}
	t.slots[h] = int32(pos + 1)
}
