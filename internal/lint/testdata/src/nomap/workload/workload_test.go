package workload

import "ids"

// Test files may build maps: reference models are supposed to be naive.
func reference(tags []ids.ID) map[ids.ID]int {
	out := map[ids.ID]int{}
	for _, t := range tags {
		out[t]++
	}
	return out
}
