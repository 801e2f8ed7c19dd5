package a

import (
	"math/rand"
	"runtime"
	"time"
)

//snb:deterministic
func bad(counts map[string]int) (total int) {
	for _, v := range counts { // want `map iteration in //snb:deterministic function bad`
		total += v
	}
	if time.Now().Unix()%2 == 0 { // want `call to time.Now`
		total += rand.Int() // want `call to math/rand.Int`
	}
	if runtime.GOMAXPROCS(0) > 4 { // want `call to runtime.GOMAXPROCS`
		total++
	}
	return total
}

// unmarked functions may do anything.
func unmarked(counts map[string]int) int {
	n := 0
	for range counts {
		n++
	}
	if time.Now().IsZero() {
		n += rand.Int()
	}
	return n
}

// slices are ordered; ranging them is always fine.
//
//snb:deterministic
func goodSlice(xs []int) (total int) {
	for _, x := range xs {
		total += x
	}
	return total
}
