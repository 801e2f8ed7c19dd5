// Package bi implements a working draft of the SNB Business Intelligence
// workload, which §1 of the paper describes as "a set of queries that
// access a large percentage of all entities in the dataset (the 'fact
// tables'), and groups these in various dimensions ... the distinguishing
// factor is the presence of graph traversal predicates and recursion",
// akin to TPC-H/TPC-DS with graph flavour. The paper marks SNB-BI as a
// working draft; the eight queries here cover its stated dimensions:
// full-fact-table scans, time/geography/tag group-bys, and traversal
// predicates over the friendship graph and the tag-class hierarchy.
//
// # One body, any reader, any fan-out
//
// Like the Interactive queries, every BI query has exactly one
// implementation, written against the generic store.Reader contract:
// instantiated with *store.Txn it is the transactional formulation,
// instantiated with *store.SnapshotView it runs lock-free over a snapshot
// view. BI queries are whole-graph scans, so each one is factored into a
// per-row kernel feeding a partial aggregate plus a finalize step, and the
// body takes the fan-out as an argument (exec.Config): it cuts
// its kind's scan into morsels, each worker folds its morsels into its own
// partial, and the finalize merges the partials. The merge is a
// commutative fold, so the rows do not depend on the worker count; one
// worker is the one-partial case and runs inline on the caller's
// goroutine. A Txn is not safe for concurrent use, so the txn path always
// runs with one worker; the registry's RunTxn and RunView do, and RunPar
// passes the caller's fan-out. Every kernel is a pure function of the
// reader and every ordering tie-breaks on a unique key; the equivalence
// and digest tests pin the rows on every path.
//
// # Scans read through Nodes
//
// A scan takes its kind's list once (store.Reader.ScanKind) and hands each
// kernel the scanned node as a store.Node, which every read of the scanned
// node takes (PropOf, OutOf, InDegreeOf, ...). On a view a Node carries the
// node's ordinal, so the kernel's reads of it cost no ID -> ordinal lookup;
// BI4 reads each message three times, BI1 and BI3 twice. On a Txn a Node is
// the ID. Hops off the scanned node read the row as Nodes
// (store.Reader.OutNodes), so each neighbour comes resolved too: a
// message's creator (BI4), a member whose friends BI7 reads, a comment's
// reply parent (BI8).
//
// Workers own their partial (and, for BI7, their scratch) for the
// duration of one Scan: never share either across workers, and never
// retain them past the merge.
//
// Partials count into plain slices indexed by a dense slot per grouped
// key (slots.go): a tag by its dimension sequence, a country by its value,
// a creator or a comment by its scan position (store.KindScan.Index).
// Keys outside those ranges — every node on a Txn, nodes created after the
// view's base, IDs outside the DimensionID scheme — are numbered on first
// sight in a workload.KeyTable, past the dense range. A finalize merges
// the partials into the first by key and walks slices; BI1's months and
// BI5's classes stay in KeyTables. No state is a Go map, so no finalize
// depends on a randomised iteration order.
package bi

import (
	"sort"
	"sync"
	"time"

	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// messageKinds are the two fact-table node kinds every message scan walks.
var messageKinds = [2]ids.Kind{ids.KindPost, ids.KindComment}

// monthBucketer buckets simulation timestamps into BI1's per-month counter
// blocks with a one-entry cache: the [lo, hi) millisecond span of the last
// month resolved and a pointer to that month's block. Only a timestamp
// outside the span pays the time.Date calendar math and the lookup in
// months, the table keyed by month. Message scans touch creation dates in
// near-sorted runs (node IDs correlate with creation time), so BI1's scan
// loop — the only calendar-bucketing kernel; BI2/BI3 compare raw
// milliseconds — hits the cache almost always and updates a counter
// through the cached pointer, with no lookup at all for the row. Each
// partial aggregate owns one — never share a bucketer across workers.
type monthBucketer struct {
	lo, hi int64                       // cached month's [lo, hi) span
	cur    *bi1Month                   // cached month's counters; nil means empty
	months workload.KeyTable[bi1Month] // keyed by monthKey
}

func (mb *monthBucketer) counters(millis int64) *bi1Month {
	if mb.cur == nil || millis < mb.lo || millis >= mb.hi {
		t := time.UnixMilli(millis).UTC()
		y, m := t.Year(), t.Month()
		mb.lo = time.Date(y, m, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
		mb.hi = time.Date(y, m+1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
		mb.cur, _ = mb.months.At(monthKey(y, m))
	}
	return mb.cur
}

// monthKey packs a calendar month into a table key: the year above four
// bits of month. keyMonth unpacks it.
func monthKey(year int, month time.Month) uint64 { return uint64(int64(year))<<4 | uint64(month) }

func keyMonth(k uint64) (int, time.Month) { return int(int64(k) >> 4), time.Month(k & 15) }

// BI1 — posting summary.

// BI1Row is a posting-summary group.
type BI1Row struct {
	Year         int
	Month        time.Month
	IsComment    bool
	LengthClass  int // 0 short (<40), 1 medium (<120), 2 long
	MessageCount int
	AvgLength    float64
}

// bi1Agg accumulates one group. Lengths are summed as integers so the
// average is independent of scan order — float accumulation would make the
// parallel merge order observable in the last bits.
type bi1Agg struct {
	count  int
	lenSum int
}

// bi1Month holds one month's groups, indexed [is comment][length class].
type bi1Month [2][3]bi1Agg

type bi1Partial struct {
	mb monthBucketer
}

// bi1Add is the BI1 kernel: classify one message into its
// (year, month, kind, length class) group.
//
//snb:deterministic
func bi1Add[R store.Reader](r R, p *bi1Partial, m store.Node) {
	length := int(r.PropOf(m, store.PropLength).Int())
	lc := 0
	switch {
	case length >= 120:
		lc = 2
	case length >= 40:
		lc = 1
	}
	c := 0
	if m.ID().Kind() == ids.KindComment {
		c = 1
	}
	agg := &p.mb.counters(r.PropOf(m, store.PropCreationDate).Int())[c][lc]
	agg.count++
	agg.lenSum += length
}

//snb:deterministic
func bi1Finalize(parts []bi1Partial) []BI1Row {
	merged := &parts[0].mb.months
	for _, part := range parts[1:] {
		for i, k := range part.mb.months.Keys() {
			dst, _ := merged.At(k)
			for c, groups := range part.mb.months.Vals()[i] {
				for lc, g := range groups {
					dst[c][lc].count += g.count
					dst[c][lc].lenSum += g.lenSum
				}
			}
		}
	}
	var out []BI1Row
	for i, k := range merged.Keys() {
		year, month := keyMonth(k)
		for c, groups := range merged.Vals()[i] {
			for lc, g := range groups {
				if g.count == 0 {
					continue
				}
				out = append(out, BI1Row{
					Year: year, Month: month, IsComment: c == 1, LengthClass: lc,
					MessageCount: g.count, AvgLength: float64(g.lenSum) / float64(g.count),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Year != b.Year {
			return a.Year < b.Year
		}
		if a.Month != b.Month {
			return a.Month < b.Month
		}
		if a.IsComment != b.IsComment {
			return !a.IsComment
		}
		return a.LengthClass < b.LengthClass
	})
	return out
}

// BI1 — posting summary: group all messages by (year, month, kind, length
// class) with counts and average length; the full-fact-table scan +
// multi-dimension group-by of the BI workload.
func BI1[R store.Reader](r R, par exec.Config) []BI1Row {
	parts := make([]bi1Partial, par.NumWorkers())
	for _, kind := range messageKinds {
		scan := r.ScanKind(kind)
		par.Scan(scan.Len(), func(w, lo, hi int) {
			part := &parts[w]
			for i := lo; i < hi; i++ {
				bi1Add(r, part, scan.At(i))
			}
		})
	}
	return bi1Finalize(parts)
}

// BI2 — tag evolution.

// BI2Row is a tag-evolution entry.
type BI2Row struct {
	Tag        ids.ID
	Name       string
	CountA     int
	CountB     int
	Difference int // |CountA - CountB|
}

type bi2Partial struct {
	tags   slots
	counts [][2]int // per tag slot: messages in window A, B
}

// bi2Add is the BI2 kernel: one scan classifies a message into window A or
// B (or neither) and counts its tags there. A tag's two window counts share
// one slot, so the tag union of the two windows is the slots counted.
//
//snb:deterministic
func bi2Add[R store.Reader](r R, p *bi2Partial, m store.Node, windowStart, windowLen int64) {
	created := r.PropOf(m, store.PropCreationDate).Int()
	var w int
	switch {
	case created >= windowStart && created < windowStart+windowLen:
		w = 0
	case created >= windowStart+windowLen && created < windowStart+2*windowLen:
		w = 1
	default:
		return
	}
	for _, te := range r.OutOf(m, store.EdgeHasTag) {
		s := p.tags.keyed(uint64(te.To))
		if s >= len(p.counts) {
			p.counts = grow(p.counts, s)
		}
		p.counts[s][w]++
	}
}

//snb:deterministic
func bi2Finalize[R store.Reader](r R, parts []bi2Partial, limit int) []BI2Row {
	merged := &parts[0]
	for _, part := range parts[1:] {
		for s, c := range part.counts {
			if c != [2]int{} {
				d := merged.tags.from(&part.tags, s)
				merged.counts = grow(merged.counts, d)
				merged.counts[d][0] += c[0]
				merged.counts[d][1] += c[1]
			}
		}
	}
	var out []BI2Row
	for s, c := range merged.counts {
		if c == [2]int{} {
			continue
		}
		t := ids.ID(merged.tags.key(s))
		out = append(out, BI2Row{
			Tag: t, Name: r.Prop(t, store.PropName).Str(),
			CountA: c[0], CountB: c[1], Difference: max(c[0]-c[1], c[1]-c[0]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Difference != out[j].Difference {
			return out[i].Difference > out[j].Difference
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Tag < out[j].Tag
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// BI2 — tag evolution: compare tag usage between two consecutive windows
// and rank by absolute change (trending topics at BI granularity). One
// message scan feeds both windows.
func BI2[R store.Reader](r R, par exec.Config, windowStart, windowLen int64, limit int) []BI2Row {
	tags := dimSlots(r, ids.KindTag)
	parts := make([]bi2Partial, par.NumWorkers())
	for w := range parts {
		parts[w] = bi2Partial{tags: tags, counts: make([][2]int, tags.dense)}
	}
	for _, kind := range messageKinds {
		scan := r.ScanKind(kind)
		par.Scan(scan.Len(), func(w, lo, hi int) {
			part := &parts[w]
			for i := lo; i < hi; i++ {
				bi2Add(r, part, scan.At(i), windowStart, windowLen)
			}
		})
	}
	return bi2Finalize(r, parts, limit)
}

// BI3 — popular topics by country.

// BI3Row is a per-country topic entry.
type BI3Row struct {
	Country int
	Tag     ids.ID
	Count   int
}

// bi3Partial counts messages per (country, tag): one row per country slot,
// indexed by tag slot. A country value inside the place dimension's range
// is its own slot.
type bi3Partial struct {
	countries, tags slots
	counts          [][]int // [country slot][tag slot] -> messages
}

// bi3Add is the BI3 kernel: count one message's tags under its country
// dimension.
//
//snb:deterministic
func bi3Add[R store.Reader](r R, p *bi3Partial, m store.Node) {
	tags := r.OutOf(m, store.EdgeHasTag)
	if len(tags) == 0 {
		return
	}
	c := p.countries.keyed(uint64(r.PropOf(m, store.PropCountry).Int()))
	if c >= len(p.counts) {
		p.counts = grow(p.counts, c)
	}
	if p.counts[c] == nil {
		p.counts[c] = make([]int, p.tags.dense)
	}
	row := p.counts[c]
	for _, te := range tags {
		s := p.tags.keyed(uint64(te.To))
		if s >= len(row) {
			row = grow(row, s)
			p.counts[c] = row
		}
		row[s]++
	}
}

// bi3Finalize merges the partials into the first, mapping each other
// partial's country and tag slots to the first's, then takes each
// country's top tag.
//
//snb:deterministic
func bi3Finalize(parts []bi3Partial) []BI3Row {
	merged := &parts[0]
	for _, part := range parts[1:] {
		for c, row := range part.counts {
			if row == nil {
				continue
			}
			dc := merged.countries.from(&part.countries, c)
			merged.counts = grow(merged.counts, dc)
			dst := merged.counts[dc]
			for s, n := range row {
				if n > 0 {
					ds := merged.tags.from(&part.tags, s)
					dst = grow(dst, ds)
					dst[ds] += n
				}
			}
			merged.counts[dc] = dst
		}
	}
	var out []BI3Row
	for c, row := range merged.counts {
		if row == nil {
			continue
		}
		best := BI3Row{Country: int(int64(merged.countries.key(c)))}
		for s, n := range row {
			// Argmax with a total tie-break (count, then tag): the winner
			// does not depend on slot order.
			if n == 0 || n < best.Count {
				continue
			}
			if tag := ids.ID(merged.tags.key(s)); n > best.Count || tag < best.Tag {
				best.Tag, best.Count = tag, n
			}
		}
		out = append(out, best)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// BI3 — popular topics by country: group message tags by the message's
// country dimension; top tag per country.
func BI3[R store.Reader](r R, par exec.Config) []BI3Row {
	// A country value is the sequence of its place.
	countries, tags := slots{dense: dimSlots(r, ids.KindPlace).dense}, dimSlots(r, ids.KindTag)
	parts := make([]bi3Partial, par.NumWorkers())
	for w := range parts {
		parts[w] = bi3Partial{countries: countries, tags: tags}
	}
	for _, kind := range messageKinds {
		scan := r.ScanKind(kind)
		par.Scan(scan.Len(), func(w, lo, hi int) {
			part := &parts[w]
			for i := lo; i < hi; i++ {
				bi3Add(r, part, scan.At(i))
			}
		})
	}
	return bi3Finalize(parts)
}

// BI4 — engagement ranking.

// BI4Row ranks persons by engagement.
type BI4Row struct {
	Person   ids.ID
	Messages int
	Likes    int // likes received on their messages
	Replies  int // replies received
	Score    int
}

type bi4Agg struct {
	messages, likes, replies int
}

type bi4Partial struct {
	persons slots
	aggs    []bi4Agg // per creator slot
}

// bi4Add is the BI4 kernel: credit one message (and the likes/replies it
// received) to its creator.
//
//snb:deterministic
func bi4Add[R store.Reader](r R, p *bi4Partial, m store.Node) {
	creators := r.OutNodes(m, store.EdgeHasCreator)
	if creators.Len() == 0 {
		return
	}
	s := nodeSlot(r, &p.persons, creators.Node(0))
	if s >= len(p.aggs) {
		p.aggs = grow(p.aggs, s)
	}
	agg := &p.aggs[s]
	agg.messages++
	agg.likes += r.InDegreeOf(m, store.EdgeLikes)
	agg.replies += r.InDegreeOf(m, store.EdgeReplyOf)
}

//snb:deterministic
func bi4Finalize(parts []bi4Partial, limit int) []BI4Row {
	merged := &parts[0]
	for _, part := range parts[1:] {
		for s, a := range part.aggs {
			if a.messages > 0 {
				d := merged.persons.from(&part.persons, s)
				merged.aggs = grow(merged.aggs, d)
				agg := &merged.aggs[d]
				agg.messages += a.messages
				agg.likes += a.likes
				agg.replies += a.replies
			}
		}
	}
	var out []BI4Row
	for s, a := range merged.aggs {
		if a.messages > 0 {
			out = append(out, BI4Row{
				Person: ids.ID(merged.persons.key(s)), Messages: a.messages, Likes: a.likes, Replies: a.replies,
				Score: a.messages + 2*a.likes + 2*a.replies,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Person < out[j].Person
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// BI4 — engagement ranking: for every person, aggregate message count,
// likes received and replies received; score = messages + 2*likes +
// 2*replies. A whole-graph aggregation joining three fact relations.
func BI4[R store.Reader](r R, par exec.Config, limit int) []BI4Row {
	persons := scanSlots(r.ScanKind(ids.KindPerson))
	parts := make([]bi4Partial, par.NumWorkers())
	for w := range parts {
		parts[w] = bi4Partial{persons: persons, aggs: make([]bi4Agg, persons.dense)}
	}
	for _, kind := range messageKinds {
		scan := r.ScanKind(kind)
		par.Scan(scan.Len(), func(w, lo, hi int) {
			part := &parts[w]
			for i := lo; i < hi; i++ {
				bi4Add(r, part, scan.At(i))
			}
		})
	}
	return bi4Finalize(parts, limit)
}

// BI5 — tag-class rollup.

// BI5Row is a tag-class rollup.
type BI5Row struct {
	Class    ids.ID
	Name     string
	Messages int
}

type bi5Partial struct {
	tags   slots
	counts []int // per tag slot: messages carrying the tag
}

// bi5Add is the BI5 kernel: count one message under each of its tags. The
// tags' classes are resolved in finalize, once per distinct tag.
//
//snb:deterministic
func bi5Add[R store.Reader](r R, p *bi5Partial, m store.Node) {
	for _, te := range r.OutOf(m, store.EdgeHasTag) {
		s := p.tags.keyed(uint64(te.To))
		if s >= len(p.counts) {
			p.counts = grow(p.counts, s)
		}
		p.counts[s]++
	}
}

// bi5Finalize resolves each counted tag's class and rolls the direct class
// counts up the isSubclassOf hierarchy (the recursion dimension of the BI
// workload). Both are serial: tags and the class hierarchy are
// dimension-sized, not fact-sized.
//
//snb:deterministic
func bi5Finalize[R store.Reader](r R, parts []bi5Partial) []BI5Row {
	merged := &parts[0]
	for _, part := range parts[1:] {
		for s, n := range part.counts {
			if n > 0 {
				d := merged.tags.from(&part.tags, s)
				merged.counts = grow(merged.counts, d)
				merged.counts[d] += n
			}
		}
	}
	var direct, total workload.KeyTable[int] // class ID -> messages
	for s, c := range merged.counts {
		if c == 0 {
			continue
		}
		if types := r.Out(ids.ID(merged.tags.key(s)), store.EdgeHasType); len(types) > 0 {
			n, _ := direct.At(uint64(types[0].To))
			*n += c
		}
	}
	for _, cls := range r.NodesOfKind(ids.KindTagClass) {
		n := direct.Find(uint64(cls))
		if n == nil {
			continue // no message to roll up
		}
		c, cur := *n, cls
		for depth := 0; depth < 32; depth++ {
			n, _ := total.At(uint64(cur))
			*n += c
			parents := r.Out(cur, store.EdgeIsSubclassOf)
			if len(parents) == 0 {
				break
			}
			cur = parents[0].To
		}
	}
	out := make([]BI5Row, 0, len(total.Keys()))
	for i, k := range total.Keys() {
		cls := ids.ID(k)
		out = append(out, BI5Row{Class: cls, Name: r.Prop(cls, store.PropName).Str(), Messages: total.Vals()[i]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Messages != out[j].Messages {
			return out[i].Messages > out[j].Messages
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// BI5 — tag-class rollup: count messages per tag class, rolling counts up
// the isSubclassOf hierarchy to the roots. Only the message scan fans
// out; the rollup over the dimension-sized class hierarchy is serial.
func BI5[R store.Reader](r R, par exec.Config) []BI5Row {
	tags := dimSlots(r, ids.KindTag)
	parts := make([]bi5Partial, par.NumWorkers())
	for w := range parts {
		parts[w] = bi5Partial{tags: tags, counts: make([]int, tags.dense)}
	}
	for _, kind := range messageKinds {
		scan := r.ScanKind(kind)
		par.Scan(scan.Len(), func(w, lo, hi int) {
			part := &parts[w]
			for i := lo; i < hi; i++ {
				bi5Add(r, part, scan.At(i))
			}
		})
	}
	return bi5Finalize(r, parts)
}

// BI6 — zombie detection.

// BI6Row is a zombie-detection entry.
type BI6Row struct {
	Person     ids.ID
	Messages   int
	LikesGiven int
}

// bi6Row is the BI6 kernel: one person's row, independent of every other
// person — the embarrassingly parallel shape of a selective person scan.
func bi6Row[R store.Reader](r R, p store.Node, createdBefore int64, maxMessages int) (BI6Row, bool) {
	if r.PropOf(p, store.PropCreationDate).Int() >= createdBefore {
		return BI6Row{}, false
	}
	msgs := r.InDegreeOf(p, store.EdgeHasCreator)
	if msgs >= maxMessages {
		return BI6Row{}, false
	}
	return BI6Row{Person: p.ID(), Messages: msgs, LikesGiven: r.OutDegreeOf(p, store.EdgeLikes)}, true
}

func bi6Finalize(parts [][]BI6Row) []BI6Row {
	out := parts[0]
	for _, part := range parts[1:] {
		out = append(out, part...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Messages != out[j].Messages {
			return out[i].Messages < out[j].Messages
		}
		return out[i].Person < out[j].Person
	})
	return out
}

// BI6 — "zombies": persons created before a date with fewer than k
// messages, reported with their like activity (lurkers skew engagement
// metrics; a selective full-person scan). Each worker appends its
// surviving rows and the finalize re-sorts.
func BI6[R store.Reader](r R, par exec.Config, createdBefore int64, maxMessages int) []BI6Row {
	parts := make([][]BI6Row, par.NumWorkers())
	persons := r.ScanKind(ids.KindPerson)
	par.Scan(persons.Len(), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if row, ok := bi6Row(r, persons.At(i), createdBefore, maxMessages); ok {
				parts[w] = append(parts[w], row)
			}
		}
	})
	return bi6Finalize(parts)
}

// BI7 — forum reach.

// BI7Row scores a forum by the reach of its member network.
type BI7Row struct {
	Forum   ids.ID
	Title   string
	Members int
	Reach   int // distinct persons within one knows-hop of the members
}

// bi7Select ranks forums by (membership desc, ID asc) and returns the
// indices of the top limit, best first. One pass keeps the best limit seen
// so far in a sorted slice: a forum that does not beat the last of them
// costs one comparison, so the thousands of forums are never sorted.
func bi7Select(forums []ids.ID, members []int, limit int) []int {
	if limit <= 0 {
		return nil
	}
	before := func(a, b int) bool {
		if members[a] != members[b] {
			return members[a] > members[b]
		}
		return forums[a] < forums[b]
	}
	top := make([]int, 0, min(limit, len(forums)))
	for i := range forums {
		if len(top) == limit && !before(i, top[limit-1]) {
			continue
		}
		j := len(top)
		for j > 0 && before(i, top[j-1]) {
			j--
		}
		if len(top) < limit {
			top = append(top, 0)
		}
		copy(top[j+1:], top[j:len(top)-1])
		top[j] = i
	}
	return top
}

// scratchPool recycles the scratches of BI7's reach workers other than the
// caller's across executions, so a steady BI lane stops allocating visited
// sets once every worker has a warm one. Scratches key their state by node
// ID, so a pooled scratch serves any reader.
var scratchPool = sync.Pool{New: func() any { return workload.NewScratch() }}

// bi7Reach is the BI7 traversal kernel: the number of distinct persons
// within one knows-hop of the forum's membership. The visited set is the
// claiming worker's scratch.
func bi7Reach[R store.Reader](r R, sc *workload.Scratch, f store.Node) int {
	sc.Begin()
	seen := sc.Seen()
	reach := 0
	members := r.OutNodes(f, store.EdgeHasMember)
	for i := range members.Len() {
		m := members.Node(i)
		if seen.TryMark(m.ID()) {
			reach++
		}
		for _, e := range r.OutOf(m, store.EdgeKnows) {
			if seen.TryMark(e.To) {
				reach++
			}
		}
	}
	return reach
}

// BI7 — forum reach: for the largest forums, the size of the 1-hop
// friendship neighbourhood of the membership (graph traversal predicate
// over a group-by result). The membership scan fans out into a
// position-indexed count array (disjoint writes, no merge), the top-limit
// selection is serial, and the reach traversals fan out one forum per
// claim: forum cost is skewed, so the other workers keep claiming while
// one of them walks a hub forum. Worker 0 walks with sc (drawn from the
// pool when nil), the others with pooled scratches.
func BI7[R store.Reader](r R, par exec.Config, sc *workload.Scratch, limit int) []BI7Row {
	forums := r.ScanKind(ids.KindForum)
	members := make([]int, forums.Len())
	par.Scan(forums.Len(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			members[i] = r.OutDegreeOf(forums.At(i), store.EdgeHasMember)
		}
	})
	order := bi7Select(forums.IDs(), members, limit)
	out := make([]BI7Row, len(order))
	scratches := make([]*workload.Scratch, par.NumWorkers())
	scratches[0] = sc
	par.MorselSize = 1
	par.Scan(len(order), func(w, lo, hi int) {
		if scratches[w] == nil {
			scratches[w] = scratchPool.Get().(*workload.Scratch)
		}
		for i, idx := range order[lo:hi] {
			f := forums.At(idx)
			out[lo+i] = BI7Row{
				Forum: f.ID(), Title: r.PropOf(f, store.PropTitle).Str(),
				Members: members[idx], Reach: bi7Reach(r, scratches[w], f),
			}
		}
	})
	for _, s := range scratches {
		if s != nil && s != sc {
			scratchPool.Put(s)
		}
	}
	return out
}

// BI8 — thread depth histogram.

// BI8Row is a conversation-depth histogram bucket.
type BI8Row struct {
	Depth    int
	Comments int
}

type bi8Partial struct {
	comments slots
	memo     []int32 // per comment slot: depth+1; 0 unresolved, onClimb while the climb is on it
	climb    []int   // the comment slots the climb in progress passed, in climb order
	hist     []int   // comments per depth
}

// onClimb marks a memo entry of a comment the climb in progress passed.
const onClimb = -1

// bi8Depth resolves one comment's reply depth by climbing the replyOf
// chain until a post (depth 0), a dangling comment (a root, also depth 0),
// a memoised comment or a comment the climb already passed, then memoises
// every comment it passed. A comment that closes a reply cycle ends the
// climb as a root would: each comment on the cycle gets the cycle's
// length less one, and every comment leading into it one more than its
// parent. So depth is a pure function of the graph wherever a climb
// starts, and independent memos (one per worker) resolve identical
// values.
func bi8Depth[R store.Reader](r R, p *bi8Partial, c store.Node) int {
	first := nodeSlot(r, &p.comments, c)
	p.climb = p.climb[:0]
	parent := -1 // depth of the node the climb stops at; -1 for none
	for n, s := c, first; ; s = nodeSlot(r, &p.comments, n) {
		if s >= len(p.memo) {
			p.memo = grow(p.memo, s)
		}
		if d := p.memo[s]; d == onClimb {
			cycle := len(p.climb) - 1
			for p.climb[cycle] != s {
				cycle--
			}
			depth := int32(len(p.climb) - cycle - 1)
			for _, t := range p.climb[cycle:] {
				p.memo[t] = depth + 1
			}
			p.climb, parent = p.climb[:cycle], int(depth)
			break
		} else if d > 0 {
			parent = int(d - 1)
			break
		}
		p.memo[s] = onClimb
		p.climb = append(p.climb, s)
		parents := r.OutNodes(n, store.EdgeReplyOf)
		if parents.Len() == 0 {
			break
		}
		if n = parents.Node(0); n.ID().Kind() != ids.KindComment {
			parent = 0
			break
		}
	}
	for i := len(p.climb) - 1; i >= 0; i-- {
		parent++
		p.memo[p.climb[i]] = int32(parent) + 1
	}
	return int(p.memo[first] - 1)
}

// bi8Add is the BI8 kernel: histogram one comment's depth.
func bi8Add[R store.Reader](r R, p *bi8Partial, c store.Node) {
	d := bi8Depth(r, p, c)
	if d >= len(p.hist) {
		p.hist = grow(p.hist, d)
	}
	p.hist[d]++
}

//snb:deterministic
func bi8Finalize(parts []bi8Partial) []BI8Row {
	hist := parts[0].hist
	for _, part := range parts[1:] {
		if len(part.hist) > len(hist) {
			hist = grow(hist, len(part.hist)-1)
		}
		for d, n := range part.hist {
			hist[d] += n
		}
	}
	out := make([]BI8Row, 0, len(hist))
	for d, n := range hist {
		if n > 0 {
			out = append(out, BI8Row{Depth: d, Comments: n})
		}
	}
	return out
}

// BI8 — thread depth histogram: the distribution of reply depths over all
// comments (recursive traversal of the reply trees; "trees made by replies
// to posts" is a §3 choke point). Workers memoise reply depths
// independently, per comment slot; depth is a pure function of the graph,
// so private memos resolve identical values without sharing.
func BI8[R store.Reader](r R, par exec.Config) []BI8Row {
	comments := r.ScanKind(ids.KindComment)
	cs := scanSlots(comments)
	parts := make([]bi8Partial, par.NumWorkers())
	for w := range parts {
		parts[w] = bi8Partial{comments: cs, memo: make([]int32, cs.dense)}
	}
	par.Scan(comments.Len(), func(w, lo, hi int) {
		part := &parts[w]
		for i := lo; i < hi; i++ {
			bi8Add(r, part, comments.At(i))
		}
	})
	return bi8Finalize(parts)
}
