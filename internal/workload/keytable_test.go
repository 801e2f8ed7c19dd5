package workload

import (
	"math"
	"testing"

	"ldbcsnb/internal/xrand"
)

// TestKeyTableMatchesMap counts a stream of keys — small ones, 0, the
// extremes and repeats — through a KeyTable and a Go map across several
// regrowths, and requires the same counts with keys in first-seen order and
// At's added result true exactly on first sight. It then resets the table
// and reuses it for a second stream, and finally runs resets across a wrap
// of the generation counter, after which keys from before the wrap must not
// read as present.
func TestKeyTableMatchesMap(t *testing.T) {
	var tab KeyTable[int]
	count := func(seed uint64, n int) {
		t.Helper()
		r := xrand.New(seed)
		want := map[uint64]int{}
		var order []uint64
		for i := 0; i < n; i++ {
			var k uint64
			switch i % 4 {
			case 0:
				k = uint64(r.Intn(300)) // mostly repeats
			case 1:
				k = []uint64{0, 1, math.MaxUint64, 1 << 63}[r.Intn(4)]
			default:
				k = r.Uint64()
			}
			_, seen := want[k]
			if !seen {
				order = append(order, k)
			}
			want[k]++
			v, added := tab.At(k)
			if added == seen {
				t.Fatalf("key %d: At reports added=%v, but seen before=%v", k, added, seen)
			}
			*v++
		}
		if len(tab.Keys()) != len(order) || len(tab.Vals()) != len(order) {
			t.Fatalf("table holds %d keys, %d values; want %d", len(tab.Keys()), len(tab.Vals()), len(order))
		}
		for i, k := range order {
			if tab.Keys()[i] != k || tab.Vals()[i] != want[k] {
				t.Fatalf("entry %d: key %d count %d, want key %d count %d", i, tab.Keys()[i], tab.Vals()[i], k, want[k])
			}
			if v := tab.Find(k); v == nil || *v != want[k] {
				t.Fatalf("Find(%d) = %v, want count %d", k, v, want[k])
			}
		}
		if 2*len(tab.Keys()) > len(tab.slots) {
			t.Fatalf("%d keys in %d slots: more than half full", len(tab.Keys()), len(tab.slots))
		}
	}
	count(5, 5000)
	first := append([]uint64(nil), tab.Keys()...)
	slots := len(tab.slots)

	// Reset, then reuse: a smaller stream fits the slots already grown, and
	// a key of the first stream reads as absent until the second adds it.
	tab.Reset()
	if len(tab.Keys()) != 0 || tab.Find(first[0]) != nil {
		t.Fatalf("after Reset: %d keys, Find(%d) = %v", len(tab.Keys()), first[0], tab.Find(first[0]))
	}
	count(6, 1000)
	if len(tab.slots) != slots {
		t.Fatalf("reuse regrew the table from %d to %d slots", slots, len(tab.slots))
	}

	// Slots written at generation 1 go stale on Reset, and come back to
	// life when the counter wraps to 1 again unless the wrap clears them.
	var wrap KeyTable[int]
	for k := uint64(0); k < 7; k++ {
		v, _ := wrap.At(k)
		*v = int(k) + 1
	}
	wrap.Reset()
	wrap.gen = math.MaxUint32 - 2
	for wrap.gen != 1 {
		if _, added := wrap.At(1000); !added {
			t.Fatalf("generation %d: a key of the previous generation reads as present", wrap.gen)
		}
		wrap.Reset()
	}
	for k := uint64(0); k < 7; k++ {
		if v := wrap.Find(k); v != nil {
			t.Fatalf("key %d from before the wrap reads as present (%d)", k, *v)
		}
	}
}
