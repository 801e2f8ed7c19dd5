// Package workload is a fixture for the nomap analyzer, which is gated on
// the package name.
package workload

import "ids"

func q4(tags []ids.ID) int {
	counts := map[ids.ID]int{} // want `map literal in package workload`
	for _, t := range tags {
		counts[t]++
	}
	seen := make(map[ids.ID]bool, len(tags)) // want `make\(map\) in package workload`
	for _, t := range tags {
		seen[t] = true
	}
	return len(counts) + len(seen)
}

// Slices, and make of anything but a map, are fine.
func ok(n int) []ids.ID {
	buf := make([]ids.ID, 0, n)
	return append(buf, []ids.ID{1, 2}...)
}
