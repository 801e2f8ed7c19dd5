package query

// The parser's symbol tables are outside exec.go, so they may use maps.
func vars(names []string) map[string]int {
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	return idx
}
