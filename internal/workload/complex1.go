package workload

import (
	"cmp"
	"strings"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Q1 — Extract description of friends with a given name. Given a person's
// firstName, return up to 20 people with the same first name, sorted by
// increasing distance (max 3) from a given person, and within distance by
// last name then ID. Results include workplaces and places of study.

// Q1Row is one Q1 result.
type Q1Row struct {
	Person       ids.ID
	Distance     int
	LastName     string
	Universities []string
	Companies    []string
}

// Q1 runs the query for (start person, first name). It walks the ball of
// radius 2 around start over knows, then finds the namesakes from whichever
// side reads less (q1NamesakesCheaper): forward, reading each ball node's
// name and expanding the ball's depth-2 layer to distance 3, or from the
// namesakes, scanning the persons' names: a namesake in the ball has the
// depth of its layer, and one outside it is at distance 3 iff some node the
// ball holds knows it (that node is at depth 2, or the namesake would be in
// the ball). Q1 is over persons, so neither side returns a node of another
// kind. Rows stream through a bounded top-20 heap, whose order is total, so
// both sides return the same rows; university/company lookups run only for
// the rows that survive the limit.
func Q1[R store.Reader](r R, sc *Scratch, start ids.ID, firstName string) []Q1Row {
	sc.begin()
	b := q1Walk(r, sc, start)
	persons := r.ScanKind(ids.KindPerson)
	return q1(r, sc, b, persons, firstName, q1NamesakesCheaper(r, b.layer(sc, 2), persons.Len()))
}

// q1Ball is the ball of radius 2 around Q1's start: every node within two
// knows hops, marked in seen in discovery order, which is their order in
// sc.env: env[0] is the start and env[ends[d-1]:ends[d]] is depth d.
type q1Ball struct {
	seen *seenSet
	ends [3]int
}

// q1Walk returns the ball of radius 2 around start, in sc.env.
func q1Walk[R store.Reader](r R, sc *Scratch, start ids.ID) q1Ball {
	b := q1Ball{seen: sc.newSeen()}
	b.seen.tryMark(start)
	sc.env = append(sc.env[:0], start)
	b.ends[0] = 1
	head := 0
	for d := 1; d <= 2; d++ {
		for ; head < b.ends[d-1]; head++ {
			for _, e := range r.Out(sc.env[head], store.EdgeKnows) {
				if b.seen.tryMark(e.To) {
					sc.env = append(sc.env, e.To)
				}
			}
		}
		b.ends[d] = len(sc.env)
	}
	return b
}

// layer returns the ball's nodes at depth d.
func (b q1Ball) layer(sc *Scratch, d int) []ids.ID { return sc.env[b.ends[d-1]:b.ends[d]] }

// depth returns the depth of a node in the ball, -1 for a node outside it.
//
//snb:noalloc
func (b q1Ball) depth(id ids.ID) int {
	pos := b.seen.pos(id)
	switch {
	case pos < 0:
		return -1
	case pos < b.ends[0]:
		return 0
	case pos < b.ends[1]:
		return 1
	}
	return 2
}

// q1NamesakesCheaper reports whether scanning n persons reads less than
// expanding the depth-2 layer: its knows out-degrees summed, stopping once
// the sum passes n.
//
//snb:noalloc
func q1NamesakesCheaper[R store.Reader](r R, layer []ids.ID, n int) bool {
	sum := 0
	for _, x := range layer {
		if sum += r.OutDegree(x, store.EdgeKnows); sum > n {
			return true
		}
	}
	return false
}

// q1 finds the namesakes of b's start from the side fromNamesakes names and
// returns the top 20 with their enrichment.
func q1[R store.Reader](r R, sc *Scratch, b q1Ball, persons store.KindScan, firstName string, fromNamesakes bool) []Q1Row {
	top := newTopK(20, func(a, b Q1Row) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance),
			strings.Compare(a.LastName, b.LastName), cmp.Compare(a.Person, b.Person))
	})
	if fromNamesakes {
		for i := range persons.Len() {
			c := persons.At(i)
			if r.PropOf(c, store.PropFirstName).Str() != firstName {
				continue
			}
			d := b.depth(c.ID())
			if d < 0 && store.IntoFrom(r, c, store.EdgeKnows, b.seen.has) {
				d = 3
			}
			if d <= 0 {
				continue
			}
			top.Push(Q1Row{Person: c.ID(), Distance: d, LastName: r.PropOf(c, store.PropLastName).Str()})
		}
	} else {
		push := func(p ids.ID, d int) {
			if p.Kind() == ids.KindPerson && r.Prop(p, store.PropFirstName).Str() == firstName {
				top.Push(Q1Row{Person: p, Distance: d, LastName: r.Prop(p, store.PropLastName).Str()})
			}
		}
		for d := 1; d <= 2; d++ {
			for _, p := range b.layer(sc, d) {
				push(p, d)
			}
		}
		for _, x := range b.layer(sc, 2) {
			for _, e := range r.Out(x, store.EdgeKnows) {
				if b.seen.tryMark(e.To) {
					push(e.To, 3)
				}
			}
		}
	}

	rows := top.Sorted()
	for i := range rows {
		for _, s := range r.Out(rows[i].Person, store.EdgeStudyAt) {
			rows[i].Universities = append(rows[i].Universities, r.Prop(s.To, store.PropName).Str())
		}
		for _, w := range r.Out(rows[i].Person, store.EdgeWorkAt) {
			rows[i].Companies = append(rows[i].Companies, r.Prop(w.To, store.PropName).Str())
		}
	}
	return rows
}

// Q2 — Find the newest 20 posts and comments from your friends, created
// before (and including) a given date. Sort descending by creation date,
// ascending by message ID.

// MessageRow is a (message, creator, date) result row shared by Q2/Q9.
type MessageRow struct {
	Message      ids.ID
	Creator      ids.ID
	CreationDate int64
}

// Q2 runs the query.
func Q2[R store.Reader](r R, sc *Scratch, start ids.ID, maxDate int64) []MessageRow {
	sc.begin()
	return topMessagesOf(r, friendsOf(r, sc, start), maxDate, 20)
}

// compareMessageRows is the (date desc, message asc) result order of Q2/Q9
// — a total order, since message IDs are unique.
func compareMessageRows(a, b MessageRow) int {
	return cmp.Or(cmp.Compare(b.CreationDate, a.CreationDate), cmp.Compare(a.Message, b.Message))
}

// topMessagesOf returns the newest messages of a person set before maxDate,
// sorted (date desc, id asc), capped at limit by a bounded top-k heap.
// Shared by Q2 (1-hop) and Q9 (2-hop).
func topMessagesOf[R store.Reader](r R, persons []ids.ID, maxDate int64, limit int) []MessageRow {
	top := newTopK(limit, compareMessageRows)
	for _, p := range persons {
		for _, m := range messagesOf(r, p) {
			if m.Stamp <= maxDate {
				top.Push(MessageRow{Message: m.To, Creator: p, CreationDate: m.Stamp})
			}
		}
	}
	return top.Sorted()
}

// Q3 — Friends within 2 steps that recently travelled to countries X and Y:
// persons who posted from both foreign countries within the period, not
// being located in either. Top 20 by total message count descending.

// Q3Row is one Q3 result.
type Q3Row struct {
	Person ids.ID
	CountX int
	CountY int
}

// Q3 runs the query; countryX/countryY are dict country indices, the window
// is [startDate, startDate+durationMillis).
func Q3[R store.Reader](r R, sc *Scratch, start ids.ID, countryX, countryY int, startDate, durationMillis int64) []Q3Row {
	sc.begin()
	end := startDate + durationMillis
	top := newTopK(20, func(a, b Q3Row) int {
		return cmp.Or(cmp.Compare(b.CountX+b.CountY, a.CountX+a.CountY), cmp.Compare(a.Person, b.Person))
	})
	env, _ := friendsAndFoF(r, sc, start)
	for _, p := range env {
		home := int(r.Prop(p, store.PropCountry).Int())
		if home == countryX || home == countryY {
			continue
		}
		var cx, cy int
		msgs := messageNodes(r, r.Resolve(p))
		for i, m := range msgs.Edges() {
			if m.Stamp < startDate || m.Stamp >= end {
				continue
			}
			switch int(r.PropOf(msgs.Node(i), store.PropCountry).Int()) {
			case countryX:
				cx++
			case countryY:
				cy++
			}
		}
		if cx > 0 && cy > 0 {
			top.Push(Q3Row{Person: p, CountX: cx, CountY: cy})
		}
	}
	return top.Sorted()
}

// Q4 — New topics: the top 10 most popular tags on posts created by the
// person's friends within the interval, excluding tags that those friends
// already used on posts before it.

// Q4Row is one Q4 result.
type Q4Row struct {
	Tag   ids.ID
	Name  string
	Count int
}

// Q4 runs the query over the window [startDate, startDate+durationMillis).
func Q4[R store.Reader](r R, sc *Scratch, start ids.ID, startDate, durationMillis int64) []Q4Row {
	sc.begin()
	end := startDate + durationMillis
	counts := &sc.tags
	counts.Reset()
	old := sc.newSeen()
	for _, f := range friendsOf(r, sc, start) {
		msgs := messageNodes(r, r.Resolve(f))
		for i, m := range msgs.Edges() {
			if m.To.Kind() != ids.KindPost {
				continue
			}
			if m.Stamp >= end {
				continue
			}
			for _, te := range r.OutOf(msgs.Node(i), store.EdgeHasTag) {
				if m.Stamp < startDate {
					old.tryMark(te.To)
				} else {
					n, _ := counts.At(uint64(te.To))
					*n++
				}
			}
		}
	}
	// (count desc, name asc, tag asc): the tag tie-break makes the order a
	// total one even when distinct tags share a name.
	top := newTopK(10, func(a, b Q4Row) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Name, b.Name), cmp.Compare(a.Tag, b.Tag))
	})
	for i, k := range counts.Keys() {
		tag := ids.ID(k)
		if old.has(tag) {
			continue
		}
		top.Push(Q4Row{Tag: tag, Name: r.Prop(tag, store.PropName).Str(), Count: counts.Vals()[i]})
	}
	return top.Sorted()
}

// Q5 — New groups: forums that the friends and friends of friends joined
// after a given date, scored by the number of posts in the forum created by
// any of those persons. Top 20 descending.

// Q5Row is one Q5 result.
type Q5Row struct {
	Forum ids.ID
	Title string
	Count int
}

// Q5 runs the query. This is the parameter-curation example of §4.1. Its
// cost tracks the posts of the forums the environment joined after minDate
// (each forum's containerOf row, one hasCreator hop per post), not the
// environment's size: at 1000 persons a curated binding reads about 1 700
// containerOf entries of some 380 joined forums, against 330 environment
// persons whose messages (24 000 hasCreator entries) a plan from the
// persons' side would read. Forum titles are read for the returned rows
// only.
func Q5[R store.Reader](r R, sc *Scratch, start ids.ID, minDate int64) []Q5Row {
	sc.begin()
	env, inEnv := friendsAndFoF(r, sc, start)
	// Forums joined after minDate by anyone in the environment, collected
	// in deterministic first-seen order into sc.aux.
	joined := sc.newSeen()
	sc.aux = sc.aux[:0]
	for _, p := range env {
		for _, fe := range r.In(p, store.EdgeHasMember) {
			if fe.Stamp > minDate && joined.tryMark(fe.To) {
				sc.aux = append(sc.aux, fe.To)
			}
		}
	}
	top := newTopK(20, func(a, b Q5Row) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Forum, b.Forum))
	})
	for _, forum := range sc.aux {
		count := 0
		posts := r.OutNodes(r.Resolve(forum), store.EdgeContainerOf)
		for i := range posts.Len() {
			for _, ce := range r.OutOf(posts.Node(i), store.EdgeHasCreator) {
				// inEnv also contains start, which is not part of the
				// environment — exclude it explicitly.
				if ce.To != start && inEnv.has(ce.To) {
					count++
				}
			}
		}
		top.Push(Q5Row{Forum: forum, Count: count})
	}
	rows := top.Sorted()
	for i := range rows {
		rows[i].Title = r.Prop(rows[i].Forum, store.PropTitle).Str()
	}
	return rows
}

// Q6 — Tag co-occurrence: among posts of friends and friends of friends
// that carry the given tag, the top 10 other tags by post count.

// Q6Row is one Q6 result.
type Q6Row struct {
	Tag   ids.ID
	Name  string
	Count int
}

// Q6 runs the query; tag is a store tag node ID. It plans per binding,
// from degree headers: the environment side reads every message the 2-hop
// environment created, the tag side every message carrying the tag, and Q6
// takes the tag side when the tag's hasTag in-degree is below the
// environment's summed hasCreator in-degree. Both sides count a tag once
// per (environment creator edge, hasTag edge) pair of a post carrying the
// query tag, so they return the same rows.
func Q6[R store.Reader](r R, sc *Scratch, start ids.ID, tag ids.ID) []Q6Row {
	sc.begin()
	env, inEnv := friendsAndFoF(r, sc, start)
	return q6(r, sc, env, inEnv, start, tag, q6TagSideCheaper(r, env, tag))
}

// q6TagSideCheaper reports whether the tag's posts are fewer entries to
// read than the environment's messages. The sum stops once it passes the
// tag's degree, so a rare tag costs a few degree reads.
func q6TagSideCheaper[R store.Reader](r R, env []ids.ID, tag ids.ID) bool {
	tagSide := r.InDegree(tag, store.EdgeHasTag)
	envSide := 0
	for _, p := range env {
		if envSide += r.InDegree(p, store.EdgeHasCreator); envSide > tagSide {
			return true
		}
	}
	return false
}

// q6 counts the co-occurring tags from the side fromTag names and returns
// the top 10. env and inEnv are friendsAndFoF's of start.
func q6[R store.Reader](r R, sc *Scratch, env []ids.ID, inEnv *seenSet, start, tag ids.ID, fromTag bool) []Q6Row {
	sc.tags.Reset()
	if fromTag {
		q6FromTag(r, sc, inEnv, start, tag)
	} else {
		q6FromEnv(r, sc, env, tag)
	}
	top := newTopK(10, func(a, b Q6Row) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Name, b.Name), cmp.Compare(a.Tag, b.Tag))
	})
	for i, k := range sc.tags.Keys() {
		t := ids.ID(k)
		top.Push(Q6Row{Tag: t, Name: r.Prop(t, store.PropName).Str(), Count: sc.tags.Vals()[i]})
	}
	return top.Sorted()
}

// q6FromEnv is Q6's environment side: every post an environment person
// created (once per hasCreator edge) that carries tag adds its other
// hasTag edges to sc.tags.
func q6FromEnv[R store.Reader](r R, sc *Scratch, env []ids.ID, tag ids.ID) {
	for _, p := range env {
		msgs := messageNodes(r, r.Resolve(p))
		for i, m := range msgs.Edges() {
			if m.To.Kind() != ids.KindPost {
				continue
			}
			tags := r.OutOf(msgs.Node(i), store.EdgeHasTag)
			if q6Listings(tags, tag) == 0 {
				continue
			}
			for _, te := range tags {
				if te.To != tag {
					n, _ := sc.tags.At(uint64(te.To))
					*n++
				}
			}
		}
	}
}

// q6FromTag is Q6's tag side: every distinct post carrying tag adds its
// other hasTag edges to sc.tags once per hasCreator edge into the
// environment — what q6FromEnv adds for it. inEnv also holds start, which
// is not part of the environment. A post with parallel hasTag edges to tag
// is listed that many times by In, and is counted at its first listing.
func q6FromTag[R store.Reader](r R, sc *Scratch, inEnv *seenSet, start, tag ids.ID) {
	var counted *seenSet
	posts := r.InNodes(r.Resolve(tag), store.EdgeHasTag)
	for i, pe := range posts.Edges() {
		m := pe.To
		if m.Kind() != ids.KindPost {
			continue
		}
		mn := posts.Node(i)
		creators := 0
		for _, ce := range r.OutOf(mn, store.EdgeHasCreator) {
			if ce.To != start && inEnv.has(ce.To) {
				creators++
			}
		}
		if creators == 0 {
			continue
		}
		tags := r.OutOf(mn, store.EdgeHasTag)
		if q6Listings(tags, tag) > 1 {
			if counted == nil {
				counted = sc.newSeen()
			}
			if !counted.tryMark(m) {
				continue
			}
		}
		for _, te := range tags {
			if te.To != tag {
				n, _ := sc.tags.At(uint64(te.To))
				*n += creators
			}
		}
	}
}

// q6Listings returns how many of a post's hasTag edges point at tag.
func q6Listings(tags []store.Edge, tag ids.ID) int {
	n := 0
	for _, te := range tags {
		if te.To == tag {
			n++
		}
	}
	return n
}

// Q7 — Recent likes: the most recent likes on any of the person's
// messages, one row per like, with the latency between message and like
// and a flag for likers outside the direct friends. Top 20 by like date
// descending, then liker ID ascending.

// Q7Row is one Q7 result.
type Q7Row struct {
	Liker         ids.ID
	Message       ids.ID
	LikeDate      int64
	LatencyMillis int64
	IsNew         bool // liker is not a direct friend
}

// Q7 runs the query.
func Q7[R store.Reader](r R, sc *Scratch, start ids.ID) []Q7Row {
	sc.begin()
	friends := sc.newSeen()
	for _, e := range r.Out(start, store.EdgeKnows) {
		if e.To != start {
			friends.tryMark(e.To)
		}
	}
	// Most recent like per liker.
	best := &sc.likes
	best.Reset()
	msgs := messageNodes(r, r.Resolve(start))
	for i, m := range msgs.Edges() {
		for _, le := range r.InOf(msgs.Node(i), store.EdgeLikes) {
			row := Q7Row{
				Liker:         le.To,
				Message:       m.To,
				LikeDate:      le.Stamp,
				LatencyMillis: le.Stamp - m.Stamp,
				IsNew:         !friends.has(le.To),
			}
			if prev, added := best.At(uint64(le.To)); added || row.LikeDate > prev.LikeDate ||
				(row.LikeDate == prev.LikeDate && row.Message < prev.Message) {
				*prev = row
			}
		}
	}
	top := newTopK(20, func(a, b Q7Row) int {
		return cmp.Or(cmp.Compare(b.LikeDate, a.LikeDate), cmp.Compare(a.Liker, b.Liker))
	})
	for _, row := range best.Vals() {
		top.Push(row)
	}
	return top.Sorted()
}
