// Package store is a fixture for the nomap analyzer: a package outside its
// allowlist may use maps.
package store

func index(keys []uint64) map[uint64]int {
	out := make(map[uint64]int, len(keys))
	for i, k := range keys {
		out[k] = i
	}
	return out
}
