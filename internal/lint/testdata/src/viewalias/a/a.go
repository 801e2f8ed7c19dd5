package a

import (
	"sort"

	"store"
)

var global []store.Edge

type holder struct {
	rows []store.Edge
}

func bad(v *store.SnapshotView, h *holder, ch chan []store.Edge) {
	out := v.Out(1)
	out[0] = store.Edge{}                                                   // want `write into out`
	out[0].Stamp = 7                                                        // want `write into out`
	out[0].Stamp++                                                          // want `write into out`
	h.rows = out                                                            // want `stored into field rows`
	global = out                                                            // want `package variable global`
	ch <- out                                                               // want `sent on a channel`
	out = append(out, store.Edge{})                                         // want `append to out`
	sort.Slice(out, func(i, j int) bool { return out[i].Dst < out[j].Dst }) // want `in-place sort of out`

	alias := out
	alias[1] = store.Edge{} // want `write into alias`

	sub := out[1:]
	sub[0] = store.Edge{} // want `write into sub`

	// A row read through ByID, and a property row, alias the same memory.
	byID := v.OutOf(store.ByID(1))
	byID[0].Stamp = 4 // want `write into byID`
	props, _ := v.PropsOf(store.ByID(1))
	props[0] = "x" // want `write into props`

	// So do the rows of a resolved node.
	scan := v.ScanKind(3)
	n := scan.At(0)
	of := v.OutOf(n)
	of[0].Stamp = 1               // want `write into of`
	of = append(of, store.Edge{}) // want `append to of`
	global = of                   // want `package variable global`
	inOf := v.InOf(n)
	h.rows = inOf // want `stored into field rows`
	inSub := inOf[1:]
	inSub[0] = store.Edge{} // want `write into inSub`
	scanned := scan.IDs()
	scanned[0] = 9 // want `write into scanned`

	// A NodeRow's entries are the row OutOf returns.
	row := v.OutNodes(n)
	edges := row.Edges()
	edges[0].Stamp = 2                  // want `write into edges`
	edges = append(edges, store.Edge{}) // want `append to edges`
	h.rows = row.Edges()                // want `stored into field rows`

	// A call's result stored, written or grown without a variable of its
	// own, and a re-slice of a call.
	h.rows = v.InOf(n)     // want `stored into field rows`
	global = v.OutOf(n)[:] // want `package variable global`
	x := v.InOf(n)[1:]
	x[0] = store.Edge{} // want `write into x`
	y := (v.Out(1))[1:][:1]
	y[0].Stamp = 3                            // want `write into y`
	_ = append(v.Out(1), store.Edge{})        // want `append to v.Out\(1\)`
	_ = append(row.Edges()[:1], store.Edge{}) // want `append to row.Edges\(\)\[:1\]`
	ch <- v.InOf(store.ByID(1))[2:]           // want `sent on a channel`
}

func good(v *store.SnapshotView) []store.Edge {
	out := v.Out(1)

	// Copy-out is the sanctioned idiom: make+copy, or append into a
	// caller-owned destination with the tainted slice as the source.
	cp := make([]store.Edge, len(out))
	copy(cp, out)
	cp[0] = store.Edge{}

	dst := append([]store.Edge(nil), out...)
	sort.Slice(dst, func(i, j int) bool { return dst[i].Dst < dst[j].Dst })

	// Ranging yields element copies; reading fields is fine.
	var sum int64
	for _, e := range out {
		sum += int64(e.Dst)
	}
	_ = sum

	// Reading a Node-keyed row and copying it out is fine.
	scan := v.ScanKind(3)
	for i := range scan.IDs() {
		cp = append(cp, v.OutOf(scan.At(i))...)
	}

	// So is ranging a NodeRow's entries and copying them or a call's
	// re-slice out.
	row := v.OutNodes(scan.At(0))
	for i, e := range row.Edges() {
		_ = row.Node(i)
		sum += int64(e.Dst)
	}
	cp = append(cp, row.Edges()[1:]...)
	copy(cp, v.InOf(store.ByID(1))[1:])

	// Multi-value form: the slice result is tainted, reads stay legal.
	ps, ok := v.PropsOf(store.ByID(1))
	if ok && len(ps) > 0 {
		_ = ps[0]
	}
	return cp
}
