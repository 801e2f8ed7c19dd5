package bi

import (
	"math"
	"testing"

	"ldbcsnb/internal/xrand"
)

// TestKeyTableMatchesMap counts a stream of keys — small ones, 0, the
// extremes and repeats — through a keyTable and a Go map across several
// regrowths, and requires the same counts with keys in first-seen order.
func TestKeyTableMatchesMap(t *testing.T) {
	r := xrand.New(5)
	var tab keyTable[int]
	want := map[uint64]int{}
	var order []uint64
	for i := 0; i < 5000; i++ {
		var k uint64
		switch i % 4 {
		case 0:
			k = uint64(r.Intn(300)) // mostly repeats
		case 1:
			k = []uint64{0, 1, math.MaxUint64, 1 << 63}[r.Intn(4)]
		default:
			k = r.Uint64()
		}
		if _, seen := want[k]; !seen {
			order = append(order, k)
		}
		want[k]++
		*tab.at(k)++
	}
	if len(tab.keys) != len(order) || len(tab.vals) != len(order) {
		t.Fatalf("table holds %d keys, %d values; want %d", len(tab.keys), len(tab.vals), len(order))
	}
	for i, k := range order {
		if tab.keys[i] != k || tab.vals[i] != want[k] {
			t.Fatalf("entry %d: key %d count %d, want key %d count %d", i, tab.keys[i], tab.vals[i], k, want[k])
		}
	}
	if 2*len(tab.keys) > len(tab.slots) {
		t.Fatalf("%d keys in %d slots: more than half full", len(tab.keys), len(tab.slots))
	}
}
