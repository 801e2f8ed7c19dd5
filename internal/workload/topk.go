package workload

import "slices"

// topK keeps the k best elements of a stream under a three-way "ranks
// before" comparison (negative when a ranks before b), replacing the
// sort-everything-then-truncate pattern in the LIMIT-k queries: the heap
// holds at most k elements (the worst kept element at the root), so a query
// over m candidate rows costs O(m log k) comparisons and O(k) memory
// instead of O(m log m) and O(m).
//
// When cmp is a total order — every SNB query tie-breaks on a unique ID —
// the selected set and its sorted order are byte-identical to sorting the
// full candidate list and truncating, which the view-vs-txn equivalence
// tests rely on.
type topK[T any] struct {
	k    int
	cmp  func(a, b T) int
	heap []T // worst-ranked kept element at index 0
}

func newTopK[T any](k int, cmp func(a, b T) int) *topK[T] {
	return &topK[T]{k: k, cmp: cmp, heap: make([]T, 0, k)}
}

// Push offers one candidate.
func (t *topK[T]) Push(x T) {
	if t.k <= 0 {
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, x)
		t.up(len(t.heap) - 1)
		return
	}
	if t.cmp(x, t.heap[0]) < 0 {
		t.heap[0] = x
		t.down(0)
	}
}

// Sorted returns the kept elements in rank order. It sorts the heap's
// backing array in place, allocating nothing; the topK must not be pushed
// to afterwards.
func (t *topK[T]) Sorted() []T {
	slices.SortFunc(t.heap, t.cmp)
	return t.heap
}

// up and down keep the heap's root the element every other kept element
// ranks before.
func (t *topK[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.cmp(t.heap[i], t.heap[parent]) <= 0 {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *topK[T]) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.cmp(t.heap[l], t.heap[worst]) > 0 {
			worst = l
		}
		if r < n && t.cmp(t.heap[r], t.heap[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}
