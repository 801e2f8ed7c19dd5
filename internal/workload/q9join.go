package workload

import (
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Set-at-a-time (Virtuoso-style) formulation of Query 9, built from
// explicit join operators so the Figure 4 join-type choice can be ablated.
// The intended plan of §3:
//
//	sort( hash-or-INL ⋈3 (post)
//	      ( INL ⋈2 (person)
//	        ( INL ⋈1 (friends) friends(start) ) ) )
//
// ⋈1 expands friends to friends-of-friends, ⋈2 deduplicates into persons,
// ⋈3 fetches their messages before the date. The paper reports ≈50%
// penalty in HyPer when ⋈1 uses hash instead of index nested loop; our
// ablation measures the analogous wrong-side materialisation cost.

// JoinAlgo selects the physical operator for a join level.
type JoinAlgo int

// Join algorithm choices.
const (
	// JoinINL probes the adjacency index per outer tuple (index nested
	// loop) — correct when the outer side is small.
	JoinINL JoinAlgo = iota
	// JoinHash builds a hash table over the *entire* candidate inner
	// relation (all persons' friendships / all messages), then probes —
	// the wrong choice when the outer side is tiny.
	JoinHash
)

// Q9Plan selects the operators for the two cardinality-sensitive joins.
type Q9Plan struct {
	FriendExpand JoinAlgo // ⋈1/⋈2: friends -> friends-of-friends
	MessageJoin  JoinAlgo // ⋈3: persons -> messages before date
}

// Q9Join executes Query 9 with explicit operators per plan, generic over
// the read path like every other query. The INL sides probe the adjacency
// (CSR subslices with a pooled visited set on the view path); the
// deliberately mis-planned hash sides materialise their build tables (fresh
// KeyTables, not scratch-pooled ones) on either path — that
// materialisation cost is the ablation's point. Results match Q9 exactly;
// only the physical execution differs.
func Q9Join[R store.Reader](r R, sc *Scratch, start ids.ID, maxDate int64, plan Q9Plan) []MessageRow {
	sc.begin()
	var env []ids.ID
	switch plan.FriendExpand {
	case JoinINL:
		// Probe each friend's adjacency: |friends| index lookups.
		env, _ = friendsAndFoF(r, sc, start)
	case JoinHash:
		friends := append([]ids.ID(nil), friendsOf(r, sc, start)...)
		// Wrong plan: build a hash table over the full knows relation
		// (scan every person), then probe with the friend list.
		var build KeyTable[[]ids.ID]
		persons := r.ScanKind(ids.KindPerson)
		for i := range persons.Len() {
			p := persons.At(i)
			for _, e := range r.OutOf(p, store.EdgeKnows) {
				knows, _ := build.At(uint64(p.ID()))
				*knows = append(*knows, e.To)
			}
		}
		var seen KeyTable[struct{}]
		seen.At(uint64(start))
		for _, f := range friends {
			if _, added := seen.At(uint64(f)); added {
				env = append(env, f)
			}
		}
		for _, f := range friends {
			knows := build.Find(uint64(f))
			if knows == nil {
				continue
			}
			for _, ff := range *knows {
				if _, added := seen.At(uint64(ff)); added {
					env = append(env, ff)
				}
			}
		}
	}

	switch plan.MessageJoin {
	case JoinINL:
		return topMessagesOf(r, env, maxDate, 20)
	case JoinHash:
		// Hash join over the message side: scan all posts and comments
		// once (no per-person index available in the paper's plan), hash
		// the environment, filter. This is the *correct* choice in the
		// paper's Figure 4 for the top join because its inputs are large;
		// in our engine the adjacency index exists, so this path measures
		// the full-scan alternative.
		var inEnv KeyTable[struct{}]
		for _, p := range env {
			inEnv.At(uint64(p))
		}
		top := newTopK(20, compareMessageRows)
		scan := func(kind ids.Kind) {
			msgs := r.ScanKind(kind)
			for i := range msgs.Len() {
				m := msgs.At(i)
				created := r.PropOf(m, store.PropCreationDate).Int()
				if created > maxDate {
					continue
				}
				cs := r.OutOf(m, store.EdgeHasCreator)
				if len(cs) == 0 || inEnv.Find(uint64(cs[0].To)) == nil {
					continue
				}
				top.Push(MessageRow{Message: m.ID(), Creator: cs[0].To, CreationDate: created})
			}
		}
		scan(ids.KindPost)
		scan(ids.KindComment)
		return top.Sorted()
	}
	return nil
}
