package store

import (
	"math"
	"slices"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// ordPopulation is a synthetic base node list of the 1000-person shape,
// sorted: per kind the node count and creation-minute range the generator
// produces at that scale, activity growing towards the end of the window
// (a burst's minute is lo + (hi-lo)*sqrt(u)), and the dense dimension kinds
// at minute 0. Posts and comments come in bursts — threads and events — of
// mean size 4 spread over about half an hour, several nodes sharing a busy
// minute. That matches the generated 1000-person base where it matters
// here: at 4 directory buckets a node, about 81 % of the message buckets
// are empty, the largest holds 13 to 19 nodes, and a node's bucket holds
// 2.8 on average (the generated base: 81 %, 15, 2.75-2.8). It also returns
// IDs newer than each time-ordered kind's last node, the IDs an update
// stream appends after the base was compacted.
func ordPopulation() (nodes, newer []ids.ID) {
	r := xrand.New(1000)
	for _, k := range []struct {
		kind          ids.Kind
		n             int
		lo, hi        int64   // creation minutes; equal for dimension kinds
		burst, spread float64 // mean nodes per burst (0: none), mean minutes from its start
	}{
		{ids.KindPerson, 908, 2349, 1399964, 0, 0},
		{ids.KindForum, 6317, 4008, 1402537, 0, 0},
		{ids.KindPost, 25740, 134869, 1402437, 4, 30},
		{ids.KindComment, 26871, 135075, 1402510, 4, 30},
		{ids.KindTag, 400, 0, 0, 0, 0},
		{ids.KindTagClass, 20, 0, 0, 0, 0},
		{ids.KindPlace, 25, 0, 0, 0, 0},
		{ids.KindOrganisation, 161, 0, 0, 0, 0},
	} {
		minutes := make([]int64, 0, k.n)
		for len(minutes) < k.n {
			c := k.lo + int64(float64(k.hi-k.lo)*math.Sqrt(r.Float64()))
			size := 1
			if k.burst > 0 {
				size += r.Geometric(1 / k.burst)
			}
			for j := 0; j < size && len(minutes) < k.n; j++ {
				minutes = append(minutes, min(k.hi, c+int64(r.Exp(k.spread))))
			}
		}
		slices.Sort(minutes)
		seq := uint32(0)
		for i, m := range minutes {
			if i > 0 && m != minutes[i-1] {
				seq = 0
			}
			nodes = append(nodes, ids.Compose(k.kind, m, seq))
			seq++
		}
		if k.hi > 0 {
			for i := int64(1); i <= 1000; i++ {
				newer = append(newer, ids.Compose(k.kind, k.hi+i, 0))
			}
		}
	}
	slices.Sort(nodes)
	return nodes, newer
}

// BenchmarkOrdLookup times one base ID -> ordinal lookup: every node in ID
// order (a kind scan, a walk over a time-ordered row), every node in random
// order (point reads), and IDs newer than the base (the miss every read of
// an appended node pays before the overlay's table).
func BenchmarkOrdLookup(b *testing.B) {
	nodes, newer := ordPopulation()
	d := newOrdDir(nodes)
	random := slices.Clone(nodes)
	for i, p := range xrand.New(1).Perm(len(random)) {
		random[i] = nodes[p]
	}
	for _, c := range []struct {
		name string
		ids  []ids.ID
	}{{"id-order", nodes}, {"random-order", random}, {"newer", newer}} {
		b.Run(c.name, func(b *testing.B) {
			hits, j := 0, 0
			for i := 0; i < b.N; i++ {
				if _, ok := d.lookup(c.ids[j], nodes); ok {
					hits++
				}
				if j++; j == len(c.ids) {
					j = 0
				}
			}
			if want := c.name != "newer"; (hits > 0) != want {
				b.Fatalf("%s: %d hits", c.name, hits)
			}
		})
	}
}

// ordView returns a view over ordPopulation: a creation date on every
// node, one hasCreator edge from every message to a person and one to
// three hasTag edges from every message to a tag.
func ordView(b *testing.B) *SnapshotView {
	nodes, _ := ordPopulation()
	s := New()
	tx := s.Begin()
	r, rt := xrand.New(7), xrand.New(8)
	var persons, tags []ids.ID
	for _, id := range nodes {
		switch id.Kind() {
		case ids.KindPerson:
			persons = append(persons, id)
		case ids.KindTag:
			tags = append(tags, id)
		}
	}
	for _, id := range nodes {
		if err := tx.CreateNode(id, Props{NewProp(PropCreationDate, Int64(int64(id)))}); err != nil {
			b.Fatal(err)
		}
		if k := id.Kind(); k == ids.KindPost || k == ids.KindComment {
			_ = tx.AddEdge(id, EdgeHasCreator, persons[r.Intn(len(persons))], 0)
			for range 1 + rt.Intn(3) {
				_ = tx.AddEdge(id, EdgeHasTag, tags[rt.Intn(len(tags))], 0)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return s.CurrentView()
}

// BenchmarkKindScan times one scanned node of a kind scan over ordView:
// reading the node's creator row and its creation date through ByID, each
// read paying an ID -> ordinal lookup, and through the Node the scan
// yields, which pays none.
func BenchmarkKindScan(b *testing.B) {
	v := ordView(b)
	kinds := []ids.Kind{ids.KindPost, ids.KindComment}
	sum := 0
	b.Run("by-id", func(b *testing.B) {
		k, list, j := 0, v.ScanKind(kinds[0]).IDs(), 0
		for i := 0; i < b.N; i++ {
			n := ByID(list[j])
			sum += len(v.OutOf(n, EdgeHasCreator)) + int(v.PropOf(n, PropCreationDate).Int()&1)
			if j++; j == len(list) {
				k = (k + 1) % len(kinds)
				list, j = v.ScanKind(kinds[k]).IDs(), 0
			}
		}
	})
	b.Run("by-node", func(b *testing.B) {
		k, scan, j := 0, v.ScanKind(kinds[0]), 0
		for i := 0; i < b.N; i++ {
			n := scan.At(j)
			sum += len(v.OutOf(n, EdgeHasCreator)) + int(v.PropOf(n, PropCreationDate).Int()&1)
			if j++; j == scan.Len() {
				k = (k + 1) % len(kinds)
				scan, j = v.ScanKind(kinds[k]), 0
			}
		}
	})
	if sum == 0 {
		b.Fatal("the scans read nothing")
	}
}

// BenchmarkHop times the hop from a person to its messages' tags over
// ordView, the shape of Q4's and Q10's inner loops: one op reads one
// person's hasCreator row and the hasTag row of every message on it,
// through ByID (each message's read pays an ID -> ordinal lookup) and
// through the row's Nodes (which pays none). ns/msg is the time per message read.
func BenchmarkHop(b *testing.B) {
	v := ordView(b)
	persons := v.ScanKind(ids.KindPerson).IDs()
	msgs := 0
	for _, p := range persons {
		msgs += len(v.InOf(ByID(p), EdgeHasCreator))
	}
	sum := 0
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(msgs)/float64(len(persons))), "ns/msg")
	}
	b.Run("by-id", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range v.InOf(ByID(persons[i%len(persons)]), EdgeHasCreator) {
				sum += len(v.OutOf(ByID(m.To), EdgeHasTag))
			}
		}
		report(b)
	})
	b.Run("by-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			row := v.InNodes(v.Resolve(persons[i%len(persons)]), EdgeHasCreator)
			for j := range row.Len() {
				sum += len(v.OutOf(row.Node(j), EdgeHasTag))
			}
		}
		report(b)
	})
	if sum == 0 {
		b.Fatal("the hops read nothing")
	}
}
