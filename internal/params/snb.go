package params

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
)

// PC-table builders for the SNB query templates. SNB-Interactive obtains
// the counts "as a by-product of data generation" (§4.1, strategy (ii));
// these builders compute the same frequency statistics from the generated
// dataset: one dense index of it, then one pass per person over
// generation-stamped arrays that yields every table's counts together.

// BuildPCTables materialises the Q2, Q5 and Q9 tables from one index and
// one per-person pass; each equals what its own builder returns.
func BuildPCTables(d *schema.Dataset) (q2, q5, q9 *Table) {
	c := countPC(d, runtime.GOMAXPROCS(0))
	return q2Table(d, c), q5Table(d, c), q9Table(d, c)
}

// BuildQ2Table materialises the Figure 6(b) table for Query 2: per person,
// |⋈1| = number of friends and |⋈2| = number of messages those friends
// created.
func BuildQ2Table(d *schema.Dataset) *Table {
	return q2Table(d, countPC(d, runtime.GOMAXPROCS(0)))
}

// BuildQ5Table materialises the PC table for Query 5 (the §4.1 motivating
// example): per person, |⋈1| = friends, |⋈2| = 2-hop environment size,
// |⋈3| = forum memberships of the environment, and |⋈4| = posts contained
// in the joined forums — the de-facto intermediate result of Q5's final
// counting join (the paper uses actual cardinalities, "which are otherwise
// only known after the query is executed").
func BuildQ5Table(d *schema.Dataset) *Table {
	return q5Table(d, countPC(d, runtime.GOMAXPROCS(0)))
}

// BuildQ9Table materialises the PC table for Query 9: |⋈1| = friends,
// |⋈2| = 2-hop environment, |⋈3| = messages of the environment.
func BuildQ9Table(d *schema.Dataset) *Table {
	return q9Table(d, countPC(d, runtime.GOMAXPROCS(0)))
}

// TwoHopSizes returns the 2-hop environment size of every person — the
// distribution Figure 5(a) plots.
func TwoHopSizes(d *schema.Dataset) []int {
	c := countPC(d, runtime.GOMAXPROCS(0))
	out := make([]int, 0, len(c))
	for i := range c {
		out = append(out, c[i].env)
	}
	sort.Ints(out)
	return out
}

func q2Table(d *schema.Dataset, c []pcCounts) *Table {
	return table(d, c, []string{"|join1| friends", "|join2| friend messages"},
		func(r *pcCounts, out []int) { out[0], out[1] = r.friends, r.friendMsgs })
}

func q5Table(d *schema.Dataset, c []pcCounts) *Table {
	return table(d, c, []string{"|join1| friends", "|join2| 2-hop", "|join3| memberships", "|join4| forum posts"},
		func(r *pcCounts, out []int) {
			out[0], out[1], out[2], out[3] = r.friends, r.env, r.memberships, r.forumPosts
		})
}

func q9Table(d *schema.Dataset, c []pcCounts) *Table {
	return table(d, c, []string{"|join1| friends", "|join2| 2-hop", "|join3| messages"},
		func(r *pcCounts, out []int) { out[0], out[1], out[2] = r.friends, r.env, r.envMsgs })
}

// table lays a PC table out over the pass's counts: one row per d.Persons
// entry, in that order, whose columns pick fills from the entry's counts.
func table(d *schema.Dataset, c []pcCounts, cols []string, pick func(*pcCounts, []int)) *Table {
	t := &Table{Cols: cols}
	if len(c) == 0 {
		return t
	}
	w := len(cols)
	counts := make([]int, w*len(c))
	t.Rows = make([]Row, len(c))
	for i := range c {
		row := counts[i*w : (i+1)*w : (i+1)*w]
		pick(&c[i], row)
		t.Rows[i] = Row{Param: uint64(d.Persons[i].ID), Counts: row}
	}
	return t
}

// pcCounts is one person's intermediate-result counts, every table's
// columns at once.
type pcCounts struct {
	friends     int // knows edge ends at the person (duplicate pairs counted each time)
	friendMsgs  int // messages created by those friends, per edge end
	env         int // distinct persons within two hops, the person excluded
	envMsgs     int // messages created by the environment
	memberships int // forum memberships of the environment
	forumPosts  int // posts contained in the distinct forums the environment joined
}

// pcIndex is a dataset in the dense form the per-person pass reads.
// Persons get ordinals in d.Persons order; an ID a knows edge or a
// membership names that d.Persons lacks gets the next free one. Forums a
// membership names get ordinals of their own.
type pcIndex struct {
	rows []int32 // ordinal of each d.Persons entry

	// friends[friendAt[o]:friendAt[o+1]] are o's friends: one entry per
	// knows edge end, in edge order, duplicate pairs and self-loops kept.
	friendAt, friends []int32
	// forums[forumAt[o]:forumAt[o+1]] are the forums o joined, one entry
	// per membership.
	forumAt, forums []int32

	messages   []int // per person ordinal: messages created
	forumPosts []int // per forum ordinal: posts contained
}

// newPCIndex builds the index in one pass over persons, knows edges,
// memberships and messages.
func newPCIndex(d *schema.Dataset) *pcIndex {
	x := &pcIndex{rows: make([]int32, len(d.Persons))}
	persons := make(map[ids.ID]int32, len(d.Persons))
	person := func(id ids.ID) int32 {
		o, ok := persons[id]
		if !ok {
			o = int32(len(persons))
			persons[id] = o
		}
		return o
	}
	for i := range d.Persons {
		x.rows[i] = person(d.Persons[i].ID)
	}
	// Both directions of every edge, as (from, to) pairs in edge order.
	knows := make([]int32, 0, 4*len(d.Knows))
	for i := range d.Knows {
		a, b := person(d.Knows[i].A), person(d.Knows[i].B)
		knows = append(knows, a, b, b, a)
	}
	forums := map[ids.ID]int32{}
	joins := make([]int32, 0, 2*len(d.Memberships))
	for i := range d.Memberships {
		m := &d.Memberships[i]
		f, ok := forums[m.Forum]
		if !ok {
			f = int32(len(forums))
			forums[m.Forum] = f
		}
		joins = append(joins, person(m.Person), f)
	}
	n := len(persons)
	x.friendAt, x.friends = csr(n, knows)
	x.forumAt, x.forums = csr(n, joins)

	// Creators and forums nobody can reach (no ordinal) count nowhere.
	x.messages = make([]int, n)
	x.forumPosts = make([]int, len(forums))
	for i := range d.Posts {
		p := &d.Posts[i]
		if o, ok := persons[p.Creator]; ok {
			x.messages[o]++
		}
		if f, ok := forums[p.Forum]; ok {
			x.forumPosts[f]++
		}
	}
	for i := range d.Comments {
		if o, ok := persons[d.Comments[i].Creator]; ok {
			x.messages[o]++
		}
	}
	return x
}

// csr groups flattened (from, to) pairs into rows by from, each row in pair
// order: the targets of from o are to[at[o]:at[o+1]].
func csr(n int, pairs []int32) (at, to []int32) {
	at = make([]int32, n+1)
	for i := 0; i < len(pairs); i += 2 {
		at[pairs[i]+1]++
	}
	for o := 0; o < n; o++ {
		at[o+1] += at[o]
	}
	next := slices.Clone(at[:n])
	to = make([]int32, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		from := pairs[i]
		to[next[from]] = pairs[i+1]
		next[from]++
	}
	return at, to
}

// pcChunk is how many consecutive persons a worker claims at a time.
const pcChunk = 64

// countPC runs the per-person pass for every d.Persons entry on up to
// workers goroutines. Workers claim chunks of entries and write only those
// entries' counts, so the result does not depend on the worker count.
func countPC(d *schema.Dataset, workers int) []pcCounts {
	x := newPCIndex(d)
	out := make([]pcCounts, len(x.rows))
	workers = min(workers, (len(out)+pcChunk-1)/pcChunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := pcWalker{
				x:      x,
				seen:   make([]int32, len(x.messages)),
				joined: make([]int32, len(x.forumPosts)),
			}
			for {
				lo := int(next.Add(pcChunk)) - pcChunk
				if lo >= len(out) {
					return
				}
				for i := lo; i < min(lo+pcChunk, len(out)); i++ {
					out[i] = w.count(x.rows[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// pcWalker is one worker's scratch for the per-person pass. An ordinal
// is in the current person's set when its stamp equals the walker's, so
// starting the next person is one increment, not a clear.
type pcWalker struct {
	x      *pcIndex
	stamp  int32
	seen   []int32 // per person ordinal
	joined []int32 // per forum ordinal
	env    []int32
}

// count expands p's 2-hop environment once and counts every column over
// it: O(friends + their friends + the environment's memberships).
func (w *pcWalker) count(p int32) pcCounts {
	x := w.x
	w.stamp++
	s := w.stamp
	w.seen[p] = s
	var c pcCounts
	env := w.env[:0]
	fs := x.friends[x.friendAt[p]:x.friendAt[p+1]]
	c.friends = len(fs)
	for _, f := range fs {
		c.friendMsgs += x.messages[f]
		if w.seen[f] != s {
			w.seen[f] = s
			env = append(env, f)
		}
	}
	direct := len(env)
	for _, f := range env[:direct] {
		for _, ff := range x.friends[x.friendAt[f]:x.friendAt[f+1]] {
			if w.seen[ff] != s {
				w.seen[ff] = s
				env = append(env, ff)
			}
		}
	}
	c.env = len(env)
	for _, q := range env {
		c.envMsgs += x.messages[q]
		joined := x.forums[x.forumAt[q]:x.forumAt[q+1]]
		c.memberships += len(joined)
		for _, f := range joined {
			if w.joined[f] != s {
				w.joined[f] = s
				c.forumPosts += x.forumPosts[f]
			}
		}
	}
	w.env = env
	return c
}
