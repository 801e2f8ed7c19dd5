package workload

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Q8 — Most recent replies: the 20 most recent reply comments to all the
// posts and comments of the person, descending by creation date then
// ascending by comment ID.

// Q8Row is one Q8 result.
type Q8Row struct {
	Comment      ids.ID
	Replier      ids.ID
	CreationDate int64
}

// Q8 runs the query with a bounded top-20 heap over the reply stream.
func Q8[R store.Reader](r R, sc *Scratch, start ids.ID) []Q8Row {
	sc.begin()
	top := newTopK(20, func(a, b Q8Row) int {
		return cmp.Or(cmp.Compare(b.CreationDate, a.CreationDate), cmp.Compare(a.Comment, b.Comment))
	})
	msgs := messageNodes(r, r.Resolve(start))
	for i := range msgs.Len() {
		replies := r.InNodes(msgs.Node(i), store.EdgeReplyOf)
		for j, re := range replies.Edges() {
			var replier ids.ID
			if cs := r.OutOf(replies.Node(j), store.EdgeHasCreator); len(cs) > 0 {
				replier = cs[0].To
			}
			top.Push(Q8Row{Comment: re.To, Replier: replier, CreationDate: re.Stamp})
		}
	}
	return top.Sorted()
}

// Q9 — Latest posts: the most recent 20 posts and comments from all
// friends or friends-of-friends of the person, created before a given
// date. This is the choke-point example of §3 (Figure 4): the intended
// plan joins friends ⋈ friends (index nested loop), then persons (index
// nested loop), then messages (hash / scan). On the view path the 2-hop
// expansion walks CSR subslices with a pooled visited set and the
// LIMIT-20 result streams through a bounded heap — §3's intended plan with
// no per-hop materialisation.
func Q9[R store.Reader](r R, sc *Scratch, start ids.ID, maxDate int64) []MessageRow {
	sc.begin()
	env, _ := friendsAndFoF(r, sc, start)
	return topMessagesOf(r, env, maxDate, 20)
}

// Q10 — Friend recommendation: friends of friends (excluding direct
// friends and the person) whose horoscope sign matches, scored by the
// difference between their posts about the person's interests and their
// posts about other topics. Top 10 by score descending, person ID
// ascending.

// Q10Row is one Q10 result.
type Q10Row struct {
	Person     ids.ID
	Score      int
	CommonTags int
}

// Q10 runs the query; sign is a zodiac index 0-11 (see ZodiacSign).
func Q10[R store.Reader](r R, sc *Scratch, start ids.ID, sign int) []Q10Row {
	sc.begin()
	interests := sc.newSeen()
	for _, e := range r.Out(start, store.EdgeHasInterest) {
		interests.tryMark(e.To)
	}
	// Direct friends (plus start) in one set, the friend list in sc.env.
	direct := sc.newSeen()
	direct.tryMark(start)
	sc.env = sc.env[:0]
	for _, e := range r.Out(start, store.EdgeKnows) {
		if direct.tryMark(e.To) {
			sc.env = append(sc.env, e.To)
		}
	}
	cand := sc.newSeen()
	top := newTopK(10, func(a, b Q10Row) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Person, b.Person))
	})
	for _, f := range sc.env {
		friends := r.OutNodes(r.Resolve(f), store.EdgeKnows)
		for i, e := range friends.Edges() {
			if direct.has(e.To) || !cand.tryMark(e.To) {
				continue
			}
			c := friends.Node(i)
			if ZodiacSign(r.PropOf(c, store.PropBirthday).Int()) != sign {
				continue
			}
			common, uncommon, commonTags := 0, 0, 0
			msgs := messageNodes(r, c)
			for j, m := range msgs.Edges() {
				if m.To.Kind() != ids.KindPost {
					continue
				}
				about := false
				for _, te := range r.OutOf(msgs.Node(j), store.EdgeHasTag) {
					if interests.has(te.To) {
						about = true
						break
					}
				}
				if about {
					common++
				} else {
					uncommon++
				}
			}
			for _, te := range r.OutOf(c, store.EdgeHasInterest) {
				if interests.has(te.To) {
					commonTags++
				}
			}
			top.Push(Q10Row{Person: e.To, Score: common - uncommon, CommonTags: commonTags})
		}
	}
	return top.Sorted()
}

// ZodiacSign maps a birthday (millis) to a zodiac sign index 0-11
// (0 = Aquarius starting Jan 21; boundaries approximate).
func ZodiacSign(birthdayMillis int64) int {
	t := time.UnixMilli(birthdayMillis).UTC()
	m, d := int(t.Month()), t.Day()
	// Sign changes around the 21st of each month.
	if d >= 21 {
		return m % 12
	}
	return (m + 11) % 12
}

// Q11 — Job referral: friends or friends of friends who work at a company
// in the given country, having started before the given year. Top 10 by
// work-from year ascending, person ID ascending.

// Q11Row is one Q11 result.
type Q11Row struct {
	Person   ids.ID
	Company  string
	WorkFrom int
}

// Q11 runs the query; country is a dict country index.
func Q11[R store.Reader](r R, sc *Scratch, start ids.ID, country int, beforeYear int) []Q11Row {
	sc.begin()
	countryNode := ids.DimensionID(ids.KindPlace, uint32(country))
	// (workFrom asc, person asc, company asc): the company tie-break makes
	// the order total for persons holding several qualifying jobs.
	top := newTopK(10, func(a, b Q11Row) int {
		return cmp.Or(cmp.Compare(a.WorkFrom, b.WorkFrom),
			cmp.Compare(a.Person, b.Person), strings.Compare(a.Company, b.Company))
	})
	env, _ := friendsAndFoF(r, sc, start)
	for _, p := range env {
		for _, we := range r.Out(p, store.EdgeWorkAt) {
			if int(we.Stamp) >= beforeYear {
				continue
			}
			located := r.Out(we.To, store.EdgeIsLocatedIn)
			if len(located) == 0 || located[0].To != countryNode {
				continue
			}
			top.Push(Q11Row{
				Person:   p,
				Company:  r.Prop(we.To, store.PropName).Str(),
				WorkFrom: int(we.Stamp),
			})
		}
	}
	return top.Sorted()
}

// Q12 — Expert search: friends who replied (with comments) to posts whose
// tags belong to the given tag class (or its descendants). Top 20 by reply
// count descending, person ID ascending.

// Q12Row is one Q12 result.
type Q12Row struct {
	Person  ids.ID
	Replies int
}

// Q12 runs the query; tagClass is a store TagClass node ID. A tag belongs
// to the class its first hasType edge points at, so a tag with several
// hasType edges counts for the subtree only when its first one lands in it.
// The subtree's tags are marked once up front (each from the class its
// first hasType edge names), and a replied-to post matches when one of its
// tags is marked.
func Q12[R store.Reader](r R, sc *Scratch, start ids.ID, tagClass ids.ID) []Q12Row {
	sc.begin()
	// Tag-class subtree: BFS over isSubclassOf with sc.aux as the queue.
	inClass := sc.newSeen()
	inClass.tryMark(tagClass)
	sc.aux = append(sc.aux[:0], tagClass)
	for head := 0; head < len(sc.aux); head++ {
		for _, sub := range r.In(sc.aux[head], store.EdgeIsSubclassOf) {
			if inClass.tryMark(sub.To) {
				sc.aux = append(sc.aux, sub.To)
			}
		}
	}
	classTags := sc.newSeen()
	for _, class := range sc.aux {
		tags := r.InNodes(r.Resolve(class), store.EdgeHasType)
		for i, te := range tags.Edges() {
			if r.OutOf(tags.Node(i), store.EdgeHasType)[0].To == class {
				classTags.tryMark(te.To)
			}
		}
	}
	top := newTopK(20, func(a, b Q12Row) int {
		return cmp.Or(cmp.Compare(b.Replies, a.Replies), cmp.Compare(a.Person, b.Person))
	})
	for _, f := range friendsOf(r, sc, start) {
		replies := 0
		msgs := messageNodes(r, r.Resolve(f))
		for i, m := range msgs.Edges() {
			if m.To.Kind() != ids.KindComment {
				continue
			}
			parents := r.OutNodes(msgs.Node(i), store.EdgeReplyOf)
			if parents.Len() == 0 || parents.Edges()[0].To.Kind() != ids.KindPost {
				continue
			}
			for _, te := range r.OutOf(parents.Node(0), store.EdgeHasTag) {
				if classTags.has(te.To) {
					replies++
					break
				}
			}
		}
		if replies > 0 {
			top.Push(Q12Row{Person: f, Replies: replies})
		}
	}
	return top.Sorted()
}

// Q13 — Single shortest path: the length of the shortest knows-path
// between two persons, or -1 if none exists.

// Q13 runs the bidirectional search Q14 shares (pathBFS). Its distances
// live in the scratch, so on the view path a call on a warm scratch
// allocates nothing.
func Q13[R store.Reader](r R, sc *Scratch, a, b ids.ID) int {
	sc.begin()
	if a == b {
		return 0
	}
	return searchPaths(r, &sc.paths, a, b)
}

// Q14 — Weighted paths: all shortest-length knows-paths between two
// persons, weighted by the message interaction between consecutive pairs:
// each comment replying to the other's post adds 1.0, each comment
// replying to the other's comment adds 0.5. Paths are returned sorted by
// weight descending, then element-wise by node ID.

// Q14Row is one path with its weight.
type Q14Row struct {
	Path   []ids.ID
	Weight float64
}

// q14PathCap bounds path enumeration on dense graphs.
const q14PathCap = 256

// Q14 runs the query on Q13's search. Every shortest path passes through
// exactly one node the search met at; the nodes before it are knows
// neighbours one layer closer to a, those after it one layer closer to b.
// Paths are generated meeting node by meeting node, in the order the search
// reached them, each combining every walk in from a with every walk on to b
// (walks in before walks on), both taking a node's knows edges in insertion
// order with parallel edges repeated — so a doubled knows edge doubles the
// rows through it. Above q14PathCap shortest paths, the first q14PathCap
// generated are kept, the same ones on both Reader instantiations.
//
// Weights are computed per node of the kept paths, not per path step: each
// node's comments are walked once through replyOf -> hasCreator, a reply to
// a kept node one layer away credits that pair, and a path sums its steps'
// credits.
func Q14[R store.Reader](r R, sc *Scratch, a, b ids.ID) []Q14Row {
	sc.begin()
	if a == b {
		return []Q14Row{{Path: []ids.ID{a}, Weight: 0}}
	}
	k := &sc.paths
	n := searchPaths(r, k, a, b)
	if n < 0 {
		return nil
	}
	d0, d1 := k.depth[0], k.depth[1]
	k.walk = slices.Grow(k.walk[:0], n+1)[:n+1]
	k.flat = k.flat[:0]
	paths := 0
	for _, m := range k.meet {
		if paths == q14PathCap {
			break
		}
		left := q14PathCap - paths
		k.walk[0] = m
		k.in = walksToRoot(r, k, 0, m, d0, k.walk[:d0+1], k.in[:0], left)
		k.on = walksToRoot(r, k, 1, m, d1, k.walk[:d1+1], k.on[:0], left)
		for i := 0; i < len(k.in) && paths < q14PathCap; i += d0 + 1 {
			for j := 0; j < len(k.on) && paths < q14PathCap; j += d1 + 1 {
				for q := i + d0; q >= i; q-- {
					k.flat = append(k.flat, k.in[q])
				}
				k.flat = append(k.flat, k.on[j+1:j+d1+1]...)
				paths++
			}
		}
	}

	// Credit every pair of kept nodes one layer apart with their replies.
	kept := sc.newSeen()
	k.nodes = k.nodes[:0]
	for _, x := range k.flat {
		if kept.tryMark(x) {
			k.nodes = append(k.nodes, x)
		}
	}
	k.credits = k.credits[:0]
	for _, x := range k.nodes {
		px := k.position(x, n)
		msgs := messageNodes(r, r.Resolve(x))
		for i, m := range msgs.Edges() {
			if m.To.Kind() != ids.KindComment {
				continue
			}
			parents := r.OutNodes(msgs.Node(i), store.EdgeReplyOf)
			if parents.Len() == 0 {
				continue
			}
			parent := parents.Edges()[0].To
			creators := r.OutOf(parents.Node(0), store.EdgeHasCreator)
			if len(creators) == 0 || !kept.has(creators[0].To) {
				continue
			}
			if pc := k.position(creators[0].To, n); pc != px-1 && pc != px+1 {
				continue
			}
			w := 0.5
			if parent.Kind() == ids.KindPost {
				w = 1.0
			}
			k.credits = append(k.credits, newPairCredit(x, creators[0].To, w))
		}
	}
	slices.SortFunc(k.credits, comparePairs)

	rows := make([]Q14Row, paths)
	flat := slices.Clone(k.flat)
	for i := range rows {
		p := flat[i*(n+1) : (i+1)*(n+1) : (i+1)*(n+1)]
		w := 0.0
		for j := 0; j+1 < len(p); j++ {
			step := newPairCredit(p[j], p[j+1], 0)
			at, _ := slices.BinarySearchFunc(k.credits, step, comparePairs)
			for ; at < len(k.credits) && comparePairs(k.credits[at], step) == 0; at++ {
				w += k.credits[at].w
			}
		}
		rows[i] = Q14Row{Path: p, Weight: w}
	}
	slices.SortFunc(rows, func(x, y Q14Row) int {
		if c := cmp.Compare(y.Weight, x.Weight); c != 0 {
			return c
		}
		return slices.Compare(x.Path, y.Path)
	})
	return rows
}

// walksToRoot appends to out the walks from x, at distance d on side s, to
// that side's root: each walk fills walk[len(walk)-d:] with x's knows
// neighbour at distance d-1, then its neighbour at d-2, and so on to the
// root, and is appended as all of walk (whose first node is the walk's
// start). Neighbours come in adjacency order with parallel edges repeated;
// the walk stops once out holds limit walks.
func walksToRoot[R store.Reader](r R, k *pathBFS, s int, x ids.ID, d int, walk, out []ids.ID, limit int) []ids.ID {
	if d == 0 {
		return append(out, walk...)
	}
	i := len(walk) - d
	for _, e := range r.Out(x, store.EdgeKnows) {
		if len(out) == limit*len(walk) {
			break
		}
		if dy, ok := k.dist(s, e.To); ok && dy == d-1 {
			walk[i] = e.To
			out = walksToRoot(r, k, s, e.To, d-1, walk, out, limit)
		}
	}
	return out
}

// pairCredit is the reply weight between two persons, keyed by the pair
// in ID order.
type pairCredit struct {
	lo, hi ids.ID
	w      float64
}

func newPairCredit(x, y ids.ID, w float64) pairCredit {
	return pairCredit{lo: min(x, y), hi: max(x, y), w: w}
}

func comparePairs(x, y pairCredit) int {
	return cmp.Or(cmp.Compare(x.lo, y.lo), cmp.Compare(x.hi, y.hi))
}

// pathBFS is the layered bidirectional breadth-first search over knows that
// Q13 and Q14 share. Side 0 grows from the source, side 1 from the target;
// each round expands the smaller frontier by one full layer and checks every
// node it reaches against the other side. The first round to reach the
// other side ends the search: the nodes it reached there (meet) all lie at
// depth[0] from the source and depth[1] from the target, whose sum is the
// shortest length, and both sides' layers are complete up to those depths.
//
// Distances are one KeyTable keyed by node ID holding both sides'
// distances, -1 where a side has not reached the node, so a visit is one
// probe. It is reset per search.
type pathBFS struct {
	dists KeyTable[[2]int32]
	depth [2]int
	front [2][]ids.ID
	next  []ids.ID
	meet  []ids.ID

	// Q14's buffers: the walk in progress, the walks from a meeting node in
	// from the source and on to the target, the generated paths (all
	// flattened), their distinct nodes and the pair credits among them.
	walk, in, on, flat, nodes []ids.ID
	credits                   []pairCredit
}

const maxPathLen = 64 // defensive bound; SNB graphs have tiny diameters

// reset starts a search.
func (k *pathBFS) reset() {
	k.dists.Reset()
	k.depth = [2]int{}
	k.meet = k.meet[:0]
}

// dist returns a node's distance on one side, if reached.
func (k *pathBFS) dist(s int, id ids.ID) (int, bool) {
	if d := k.dists.Find(uint64(id)); d != nil && d[s] >= 0 {
		return int(d[s]), true
	}
	return 0, false
}

// visit marks a node at distance d on side s, reporting whether it was
// unreached there (fresh) and whether the other side has reached it (meet).
func (k *pathBFS) visit(s int, id ids.ID, d int) (fresh, meet bool) {
	dd, added := k.dists.At(uint64(id))
	if added {
		*dd = [2]int32{-1, -1}
	}
	if fresh = dd[s] < 0; fresh {
		dd[s] = int32(d)
	}
	return fresh, dd[1-s] >= 0
}

// position returns a node's place on a shortest path of length n: its
// distance from the source within side 0's layers, n minus its distance
// from the target beyond them.
func (k *pathBFS) position(id ids.ID, n int) int {
	if d, ok := k.dist(0, id); ok {
		return d
	}
	d, _ := k.dist(1, id)
	return n - d
}

// searchPaths runs the search from a to b (a != b) and returns the shortest
// path length, or -1 when b is unreachable.
func searchPaths[R store.Reader](r R, k *pathBFS, a, b ids.ID) int {
	k.reset()
	k.front[0] = append(k.front[0][:0], a)
	k.front[1] = append(k.front[1][:0], b)
	k.visit(0, a, 0)
	k.visit(1, b, 0)
	for len(k.front[0]) > 0 && len(k.front[1]) > 0 && k.depth[0]+k.depth[1] < maxPathLen {
		s := 0
		if len(k.front[0]) > len(k.front[1]) {
			s = 1
		}
		d := k.depth[s] + 1
		k.next = k.next[:0]
		for _, p := range k.front[s] {
			for _, e := range r.Out(p, store.EdgeKnows) {
				if fresh, meet := k.visit(s, e.To, d); fresh {
					k.next = append(k.next, e.To)
					if meet {
						k.meet = append(k.meet, e.To)
					}
				}
			}
		}
		k.depth[s] = d
		if len(k.meet) > 0 {
			return k.depth[0] + k.depth[1]
		}
		k.front[s], k.next = k.next, k.front[s]
	}
	return -1
}
