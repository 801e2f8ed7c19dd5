package main

import (
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// recorder collects what one pass over an op list observes from outside the
// program: one latency sample per op, the outcome counts, and (traced
// passes only) the spans. Every field is safe for the workload's client
// goroutines to use concurrently; the slices are preallocated so recording
// never allocates inside the timed section.
type recorder struct {
	lat       []int64 // ns, one slot per op, claimed through n
	n         atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64
	tr        *tracer   // nil on untraced passes
	deadline  time.Time // hard stop for a box much slower than the reference
}

func newRecorder(capacity int, tr *tracer) *recorder {
	return &recorder{lat: make([]int64, capacity), tr: tr, deadline: time.Now().Add(time.Hour)}
}

// sample records the latency of one op that returned OK and was verified.
func (r *recorder) sample(d time.Duration) {
	if i := r.n.Add(1) - 1; int(i) < len(r.lat) {
		r.lat[i] = int64(d)
	}
}

// outcome counts one attempted op; a failed op contributes no latency.
func (r *recorder) outcome(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

func (r *recorder) expired(now time.Time) bool { return now.After(r.deadline) }

// sorted returns the recorded latencies in ascending order.
func (r *recorder) sorted() []int64 {
	return sortInt64(r.lat[:min(int(r.n.Load()), len(r.lat))])
}

// quantile is the nearest-rank p-quantile of an ascending sample.
func quantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortInt64(s []int64) []int64 {
	slices.Sort(s)
	return s
}

func sum(s []int64) (total int64) {
	for _, v := range s {
		total += v
	}
	return total
}

func mean(s []int64) float64 { return ratio(float64(sum(s)), float64(len(s))) }

func medianFloat(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Sorted(slices.Values(s))
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
