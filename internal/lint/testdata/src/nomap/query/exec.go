// Package query is a fixture for the nomap analyzer: only its exec.go is
// checked.
package query

// Params is a map type the caller builds; declaring it is fine.
type Params map[string]int

func groups(keys []string) int {
	g := make(map[string]int) // want `make\(map\) in package query`
	for _, k := range keys {
		g[k]++
	}
	return len(g)
}

func lookup(p Params, name string) int { return p[name] }
