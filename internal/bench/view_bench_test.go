package bench

import (
	"sync"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// BenchmarkViewVsTxn* compare the two read paths of the store on every
// Interactive query: the MVCC transaction path (shard RLock + per-call MVCC
// filtering + fresh []Edge per hop) against the frozen snapshot-view path
// (lock-free CSR subslices). Both paths execute the *same* generic query
// implementation over the same node-keyed scratch — these benchmarks
// measure exactly the read-path cost difference, not implementation drift. Run with -benchmem: the view path's adjacency
// iteration (Out2Hop) must report 0 allocs/op once the scratch is warm.
//
// `make bench` converts the output into BENCH_interactive.json via
// cmd/benchjson so the per-query ns/op and allocs/op trajectory is tracked
// across PRs.

// benchPerson picks a well-connected start person.
func benchPerson(tb testing.TB, env *Env) ids.ID {
	tb.Helper()
	var best ids.ID
	bestDeg := -1
	env.Store.View(func(tx *store.Txn) {
		for _, p := range tx.NodesOfKind(ids.KindPerson) {
			if d := tx.OutDegree(p, store.EdgeKnows); d > bestDeg {
				best, bestDeg = p, d
			}
		}
	})
	if bestDeg < 1 {
		tb.Skip("no connected person at this scale")
	}
	return best
}

// benchPartner picks a second connected person distinct from p (for the
// path queries Q13/Q14).
func benchPartner(b testing.TB, env *Env, p ids.ID) ids.ID {
	b.Helper()
	var partner ids.ID
	env.Store.View(func(tx *store.Txn) {
		for _, q := range tx.NodesOfKind(ids.KindPerson) {
			if q != p && tx.OutDegree(q, store.EdgeKnows) > 0 {
				partner = q
				break
			}
		}
	})
	if partner == 0 {
		b.Skip("no partner person at this scale")
	}
	return partner
}

// benchCommonName returns the most common first name in the environment.
func benchCommonName(env *Env) string {
	counts := map[string]int{}
	for i := range env.Full.Persons {
		counts[env.Full.Persons[i].FirstName]++
	}
	name, best := "", 0
	for n, c := range counts {
		if c > best {
			name, best = n, c
		}
	}
	return name
}

// benchPools curates the driver's parameter pools over the environment's
// bulk part, the part its store holds, so every binding names loaded
// nodes and Q5's join window ends where the loaded posts do.
func benchPools(env *Env) *workload.ParamPools {
	return driver.PreparePools(env.Bulk, 1, false)
}

// poolCycle returns a function that yields bindings round robin, so a
// benchmark body timed b.N times reports the mean over the pool once b.N
// covers it, the way a run's mix meets the bindings.
func poolCycle[T any](bindings []T) func() T {
	i := -1
	return func() T {
		i = (i + 1) % len(bindings)
		return bindings[i]
	}
}

// pairs returns every (person, value) binding of two pools.
func pairs(persons, values []ids.ID) [][2]ids.ID {
	out := make([][2]ids.ID, 0, len(persons)*len(values))
	for _, p := range persons {
		for _, x := range values {
			out = append(out, [2]ids.ID{p, x})
		}
	}
	return out
}

// benchPaths runs one query body on both read paths as "txn" and "view"
// sub-benchmarks. The bodies receive the concrete reader type, so the view
// side measures the view instantiation of the generic query, not an
// interface-dispatched call.
func benchPaths(b *testing.B, env *Env,
	txn func(tx *store.Txn, sc *workload.Scratch),
	view func(v *store.SnapshotView, sc *workload.Scratch)) {
	b.Helper()
	b.Run("txn", func(b *testing.B) {
		tx := env.Store.Begin()
		sc := workload.NewScratch()
		txn(tx, sc) // warm the scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn(tx, sc)
		}
	})
	b.Run("view", func(b *testing.B) {
		v := env.Store.CurrentView()
		sc := workload.NewScratch()
		view(v, sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view(v, sc)
		}
	})
}

// BenchmarkViewVsTxnOut2Hop measures the raw Out-heavy 2-hop knows
// expansion — the navigation kernel under Q1/Q9/Q13/Q14. This is the
// benchmark whose view side must stay at 0 allocs/op.
func BenchmarkViewVsTxnOut2Hop(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.TwoHopEnv(tx, sc, p) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.TwoHopEnv(v, sc, p) })
}

func BenchmarkViewVsTxnQ1(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	name := benchCommonName(env)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q1(tx, sc, p, name) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q1(v, sc, p, name) })
}

// BenchmarkViewVsTxnQ2 measures Q2 (friends' newest 20 messages): 1-hop
// expansion plus a bounded top-20 cut.
func BenchmarkViewVsTxnQ2(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	maxDate := int64(1) << 62
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q2(tx, sc, p, maxDate) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q2(v, sc, p, maxDate) })
}

func BenchmarkViewVsTxnQ3(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	span := datagen.SimEnd - datagen.SimStart
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q3(tx, sc, p, 0, 1, datagen.SimStart, span) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q3(v, sc, p, 0, 1, datagen.SimStart, span) })
}

// BenchmarkViewVsTxnQ4 cycles over the curated persons with the pools'
// window, so each binding reads the tags of its friends' posts.
func BenchmarkViewVsTxnQ4(b *testing.B) {
	env := testEnv(b)
	pools := benchPools(env)
	txnNext, viewNext := poolCycle(pools.Persons), poolCycle(pools.Persons)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) {
			workload.Q4(tx, sc, txnNext(), pools.StartDate, pools.WindowMillis)
		},
		func(v *store.SnapshotView, sc *workload.Scratch) {
			workload.Q4(v, sc, viewNext(), pools.StartDate, pools.WindowMillis)
		})
}

// BenchmarkViewVsTxnQ5 cycles over the curated Q5 persons with the pools'
// join date, so each binding reads the posts of the forums its
// environment joined in the window.
func BenchmarkViewVsTxnQ5(b *testing.B) {
	env := testEnv(b)
	pools := benchPools(env)
	txnNext, viewNext := poolCycle(pools.PersonsQ5), poolCycle(pools.PersonsQ5)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q5(tx, sc, txnNext(), pools.StartDate) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q5(v, sc, viewNext(), pools.StartDate) })
}

// BenchmarkViewVsTxnQ6 cycles over every (person, tag) binding of the
// curated pools, so it times both of Q6's sides in the proportion the
// pools plan them.
func BenchmarkViewVsTxnQ6(b *testing.B) {
	env := testEnv(b)
	pools := benchPools(env)
	bindings := pairs(pools.Persons, pools.Tags)
	txnNext, viewNext := poolCycle(bindings), poolCycle(bindings)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { p := txnNext(); workload.Q6(tx, sc, p[0], p[1]) },
		func(v *store.SnapshotView, sc *workload.Scratch) { p := viewNext(); workload.Q6(v, sc, p[0], p[1]) })
}

func BenchmarkViewVsTxnQ7(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q7(tx, sc, p) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q7(v, sc, p) })
}

func BenchmarkViewVsTxnQ8(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q8(tx, sc, p) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q8(v, sc, p) })
}

// BenchmarkViewVsTxnQ9 measures the paper's choke-point query (2-hop
// environment, newest 20 messages).
func BenchmarkViewVsTxnQ9(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	maxDate := int64(1) << 62
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q9(tx, sc, p, maxDate) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q9(v, sc, p, maxDate) })
}

// BenchmarkViewVsTxnQ10 cycles over every (person, sign) binding of the
// curated persons and the twelve signs.
func BenchmarkViewVsTxnQ10(b *testing.B) {
	env := testEnv(b)
	pools := benchPools(env)
	type binding struct {
		person ids.ID
		sign   int
	}
	var bindings []binding
	for _, p := range pools.Persons {
		for sign := range 12 {
			bindings = append(bindings, binding{p, sign})
		}
	}
	txnNext, viewNext := poolCycle(bindings), poolCycle(bindings)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { p := txnNext(); workload.Q10(tx, sc, p.person, p.sign) },
		func(v *store.SnapshotView, sc *workload.Scratch) {
			p := viewNext()
			workload.Q10(v, sc, p.person, p.sign)
		})
}

func BenchmarkViewVsTxnQ11(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q11(tx, sc, p, 0, 2013) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q11(v, sc, p, 0, 2013) })
}

// BenchmarkViewVsTxnQ12 cycles over every (person, tag class) binding of
// the curated pools.
func BenchmarkViewVsTxnQ12(b *testing.B) {
	env := testEnv(b)
	pools := benchPools(env)
	bindings := pairs(pools.Persons, pools.TagClasses)
	txnNext, viewNext := poolCycle(bindings), poolCycle(bindings)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { p := txnNext(); workload.Q12(tx, sc, p[0], p[1]) },
		func(v *store.SnapshotView, sc *workload.Scratch) { p := viewNext(); workload.Q12(v, sc, p[0], p[1]) })
}

func BenchmarkViewVsTxnQ13(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	other := benchPartner(b, env, p)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { workload.Q13(tx, sc, p, other) },
		func(v *store.SnapshotView, sc *workload.Scratch) { workload.Q13(v, sc, p, other) })
}

// BenchmarkViewVsTxnQ14 cycles over every pair of distinct curated
// persons.
func BenchmarkViewVsTxnQ14(b *testing.B) {
	env := testEnv(b)
	pools := benchPools(env)
	var bindings [][2]ids.ID
	for _, p := range pairs(pools.Persons, pools.Persons) {
		if p[0] != p[1] {
			bindings = append(bindings, p)
		}
	}
	txnNext, viewNext := poolCycle(bindings), poolCycle(bindings)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) { p := txnNext(); workload.Q14(tx, sc, p[0], p[1]) },
		func(v *store.SnapshotView, sc *workload.Scratch) { p := viewNext(); workload.Q14(v, sc, p[0], p[1]) })
}

// BenchmarkViewVsTxnShortWalk measures the short-read family S1-S3 on one
// profile — the "bulk of the user queries" point lookups.
func BenchmarkViewVsTxnShortWalk(b *testing.B) {
	env := testEnv(b)
	p := benchPerson(b, env)
	benchPaths(b, env,
		func(tx *store.Txn, sc *workload.Scratch) {
			workload.S1(tx, p)
			workload.S2(tx, p)
			workload.S3(tx, p)
		},
		func(v *store.SnapshotView, sc *workload.Scratch) {
			workload.S1(v, p)
			workload.S2(v, p)
			workload.S3(v, p)
		})
}

// BenchmarkViewRebuild measures the cost the view path pays for a full
// recompaction: one from-scratch CSR compaction of the bench environment.
// With delta maintenance this is no longer the per-commit tax — it is the
// era-bump cost BenchmarkViewRefresh amortises away.
func BenchmarkViewRebuild(b *testing.B) {
	env := testEnv(b)
	ts := env.Store.LastCommit()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Store.ViewAt(ts)
	}
}

// refreshEnv is a private environment for the view-maintenance benchmarks:
// they commit during measurement, which must not perturb the shared env
// the query benchmarks read.
var (
	refreshEnvOnce sync.Once
	refreshEnvVal  *Env
	refreshEnvErr  error
	refreshSeq     int64
)

func refreshBenchEnv(tb testing.TB) *Env {
	tb.Helper()
	refreshEnvOnce.Do(func() {
		refreshEnvVal, refreshEnvErr = NewEnv(250, 7)
	})
	if refreshEnvErr != nil {
		tb.Fatal(refreshEnvErr)
	}
	return refreshEnvVal
}

// refreshCommit lands one sparse update transaction: a new person plus a
// knows edge onto an existing person — the delta shape of the Interactive
// mix's U1/U8 updates. It returns the new person.
func refreshCommit(tb testing.TB, env *Env, anchor ids.ID) ids.ID {
	tb.Helper()
	refreshSeq++
	tx := env.Store.Begin()
	p := ids.Compose(ids.KindPerson, 1<<39+refreshSeq, 0)
	if err := tx.CreateNode(p, store.Props{store.NewProp(store.PropFirstName, store.String("x"))}); err != nil {
		tb.Fatal(err)
	}
	if err := tx.AddKnows(p, anchor, refreshSeq); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkViewRefresh measures advancing the cached view after commits —
// the cost the first reader after an update pays on the incremental
// maintenance path, where BenchmarkViewRebuild is what it paid before.
//
//   - 1commit / 16commits: CurrentView applies the pending delta(s) onto
//     the era's overlay. The reader that crosses the store's default
//     trigger rebuilds inline, so the mean is what a reader pays in the
//     steady state, those rebuilds amortised in.
//   - burst: 4096 commits nobody reads, then one CurrentView, which
//     applies the whole backlog as one refresh: the commit log keeps a
//     view's backlog until the era's overlay plus the backlog passes the
//     compaction trigger, which this case sets out of reach.
//   - overlay=1K / 16K / 64K: the 1commit case with compaction off and the
//     era's overlay held between that many entries and twice as many (it is
//     rebuilt away and regrown, off the clock, whenever it gets there).
//     ns/op and B/op must be flat across the three: a refresh costs what
//     its delta costs, not what the overlay holds.
func BenchmarkViewRefresh(b *testing.B) {
	run := func(commits int) func(b *testing.B) {
		return func(b *testing.B) {
			var s refreshStore
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if s.spent() {
					s.replace(b)
				}
				for c := 0; c < commits; c++ {
					s.commit(b)
				}
				b.StartTimer()
				s.env.Store.CurrentView()
			}
		}
	}
	b.Run("1commit", run(1))
	b.Run("16commits", run(16))
	b.Run("burst", func(b *testing.B) {
		var s refreshStore
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if s.spent() {
				s.replace(b)
				// Bursts accumulate in one era's overlay: a trigger the
				// overlay stays under keeps every burst a refresh.
				s.env.Store.SetViewCompactThreshold(1 << 30)
			}
			for c := 0; c < 4096; c++ {
				s.commit(b)
			}
			b.StartTimer()
			if _, ev := s.env.Store.AcquireView(); ev != store.ViewRefreshed {
				b.Fatalf("acquisition after a 4096-commit burst: %v, want refresh", ev)
			}
		}
	})
	overlay := func(entries int64) func(b *testing.B) {
		return func(b *testing.B) {
			var s refreshStore
			regrow := func() {
				st := s.env.Store
				st.SetViewCompactThreshold(0) // the next advance rebuilds inline: empty overlay
				s.commit(b)
				st.CurrentView()
				st.SetViewCompactThreshold(1 << 30)
				for st.ViewStats().OverlayEntries < entries {
					s.commit(b)
					st.CurrentView()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if s.spent() {
					s.replace(b)
					regrow()
				} else if s.env.Store.ViewStats().OverlayEntries >= 2*entries {
					regrow()
				}
				s.commit(b)
				b.StartTimer()
				s.env.Store.CurrentView()
			}
		}
	}
	b.Run("overlay=1K", overlay(1<<10))
	b.Run("overlay=16K", overlay(16<<10))
	b.Run("overlay=64K", overlay(64<<10))
}

// refreshStore is the store a BenchmarkViewRefresh case commits into. It is
// replaced, off the clock, once it has taken refreshStoreCommits commits: at
// a few microseconds a refresh, a one-second run is hundreds of thousands of
// iterations, and a store that gained a person in each would outgrow a
// gigabyte, with every rebuild on it growing too. Every store starts at the
// same size.
type refreshStore struct {
	env    *Env
	anchor ids.ID
	landed int
}

const refreshStoreCommits = 1 << 16

func (s *refreshStore) spent() bool { return s.env == nil || s.landed >= refreshStoreCommits }

// replace starts over on a fresh store, its first view built.
func (s *refreshStore) replace(b *testing.B) {
	env, err := NewEnv(250, 7)
	if err != nil {
		b.Fatal(err)
	}
	s.env, s.anchor, s.landed = env, benchPerson(b, env), 0
	env.Store.CurrentView()
}

func (s *refreshStore) commit(b *testing.B) {
	refreshCommit(b, s.env, s.anchor)
	s.landed++
}

// TestViewAdjacencyZeroAlloc pins the acceptance bar that `make bench`
// reports informally: the generic 2-hop adjacency iteration and Q13's
// bidirectional search, instantiated with the frozen view, must not allocate
// once the scratch is warm, and Q14 allocates only its result — on a
// freshly compacted view AND on a delta-refreshed view whose hot rows live
// in the era's overlay. Warm Q4, Q6 and Q7 allocate as often for
// the best-connected person as for a least-connected one. A kind scan and
// every read through the Nodes it yields allocate nothing on either view,
// nor do hops through the Nodes of a row.
func TestViewAdjacencyZeroAlloc(t *testing.T) {
	env := testEnv(t)
	var p ids.ID
	bestDeg := -1
	env.Store.View(func(tx *store.Txn) {
		for _, q := range tx.NodesOfKind(ids.KindPerson) {
			if d := tx.OutDegree(q, store.EdgeKnows); d > bestDeg {
				p, bestDeg = q, d
			}
		}
	})
	if bestDeg < 1 {
		t.Skip("no connected person at this scale")
	}
	v := env.Store.CurrentView()
	sc := workload.NewScratch()
	workload.TwoHopEnv(v, sc, p) // warm
	allocs := minAllocs(50, func() {
		workload.TwoHopEnv(v, sc, p)
	})
	if allocs != 0 {
		t.Fatalf("view 2-hop expansion allocates %.1f times per run, want 0", allocs)
	}
	partner := benchPartner(t, env, p)
	assertPathAllocs(t, "view", v, sc, p, partner)
	assertKeyedAllocs(t, env, v, sc, p)
	assertNodeAllocs(t, "view", v, p)

	// The refreshed-view half mutates its store, so it runs on the private
	// refresh env — the shared env above must stay pristine for the other
	// tests and query benchmarks.
	renv := refreshBenchEnv(t)
	rp := benchPerson(t, renv)
	rsc := workload.NewScratch()
	rpartner := benchPartner(t, renv, rp)
	rv0 := renv.Store.CurrentView()
	workload.Q13(rv0, rsc, rp, rpartner) // warm the scratch on rv0
	// Commit a sparse update touching rp's own adjacency row, so the
	// refreshed view serves rp's knows list from the overlay, and adding a
	// person the warm scratch has never seen.
	added := refreshCommit(t, renv, rp)
	rv, ev := renv.Store.AcquireView()
	if ev != store.ViewRefreshed {
		t.Fatalf("post-commit acquisition: %v, want refresh", ev)
	}
	if rv.Era() != rv0.Era() {
		t.Fatal("refresh bumped the era")
	}
	workload.TwoHopEnv(rv, rsc, rp) // warm
	allocs = minAllocs(50, func() {
		workload.TwoHopEnv(rv, rsc, rp)
	})
	if allocs != 0 {
		t.Fatalf("refreshed-view 2-hop expansion allocates %.1f times per run, want 0", allocs)
	}
	assertPathAllocs(t, "refreshed view", rv, rsc, added, rpartner)
	assertNodeAllocs(t, "refreshed view", rv, added)
}

// assertNodeAllocs requires the Node read path to allocate nothing once the
// decode cache is warm: scans of the message and person kinds reading every
// scanned node's rows, degrees and a property through its Node (the BI
// kernels' reads), the reads of p through a Node resolved once, and p's
// hops through the Nodes of its rows (OutNodes, InNodes, NodeRow.Node).
func assertNodeAllocs(t *testing.T, name string, v *store.SnapshotView, p ids.ID) {
	t.Helper()
	sum := 0
	scan := func() {
		for _, kind := range []ids.Kind{ids.KindPost, ids.KindComment, ids.KindPerson} {
			nodes := v.ScanKind(kind)
			for i := 0; i < nodes.Len(); i++ {
				n := nodes.At(i)
				sum += len(v.OutOf(n, store.EdgeHasTag)) + len(v.InOf(n, store.EdgeLikes)) +
					v.OutDegreeOf(n, store.EdgeHasCreator) + v.InDegreeOf(n, store.EdgeReplyOf) +
					int(v.PropOf(n, store.PropCreationDate).Int())
			}
		}
	}
	scan() // warm the decode cache
	if allocs := minAllocs(3, scan); allocs != 0 {
		t.Fatalf("%s: a kind scan reading through Nodes allocates %.1f times per run, want 0", name, allocs)
	}
	point := func() {
		n := v.Resolve(p)
		sum += len(v.OutOf(n, store.EdgeKnows)) + len(v.InOf(n, store.EdgeKnows)) + v.OutDegreeOf(n, store.EdgeLikes)
	}
	point()
	if allocs := minAllocs(50, point); allocs != 0 {
		t.Fatalf("%s: reads of a resolved Node allocate %.1f times per run, want 0", name, allocs)
	}
	// p's hops as Q4, Q10 and Q12 take them: its messages' tags and
	// parents, its friends' degrees, each through the Nodes a row hands
	// over.
	hop := func() {
		n := v.Resolve(p)
		msgs := v.InNodes(n, store.EdgeHasCreator)
		for i := range msgs.Len() {
			m := msgs.Node(i)
			tags := v.OutNodes(m, store.EdgeHasTag)
			for j := range tags.Len() {
				sum += v.InDegreeOf(tags.Node(j), store.EdgeHasInterest)
			}
			sum += len(v.OutNodes(m, store.EdgeReplyOf).Edges())
		}
		friends := v.OutNodes(n, store.EdgeKnows)
		for i := range friends.Len() {
			sum += len(v.InNodes(friends.Node(i), store.EdgeHasCreator).Edges())
		}
	}
	hop()
	if allocs := minAllocs(50, hop); allocs != 0 {
		t.Fatalf("%s: hops through NodeRows allocate %.1f times per run, want 0", name, allocs)
	}
	if sum == 0 {
		t.Fatalf("%s: the Node reads saw nothing", name)
	}
}

// minAllocs is the smallest of three testing.AllocsPerRun readings. The
// count is process-wide, so a goroutine still winding down from an earlier
// test (a durable store's flusher or checkpointer) can inflate a reading,
// never deflate one.
func minAllocs(runs int, f func()) float64 {
	best := testing.AllocsPerRun(runs, f)
	for i := 0; i < 2; i++ {
		best = min(best, testing.AllocsPerRun(runs, f))
	}
	return best
}

// assertPathAllocs requires Q13 from a to b to allocate nothing on a warm
// scratch, and Q14 no more than its rows and their paths (two allocations).
// AllocsPerRun's warm-up call is the one that grows the scratch.
func assertPathAllocs(t *testing.T, name string, v *store.SnapshotView, sc *workload.Scratch, a, b ids.ID) {
	t.Helper()
	if workload.Q13(v, sc, a, b) < 1 {
		t.Fatalf("%s: no path from %v to %v", name, a, b)
	}
	if allocs := minAllocs(50, func() { workload.Q13(v, sc, a, b) }); allocs != 0 {
		t.Fatalf("%s: Q13 allocates %.1f times per run, want 0", name, allocs)
	}
	if allocs := minAllocs(50, func() { workload.Q14(v, sc, a, b) }); allocs > 2 {
		t.Fatalf("%s: Q14 allocates %.1f times per run, want at most 2", name, allocs)
	}
}

// assertKeyedAllocs requires warm Q4, Q6 and Q7 on the view to allocate as
// often for hi, the best-connected person, as for a least-connected one:
// their per-tag and per-liker state lives in the scratch, so a warm call
// allocates its result and nothing that grows with the distinct keys.
func assertKeyedAllocs(t *testing.T, env *Env, v *store.SnapshotView, sc *workload.Scratch, hi ids.ID) {
	t.Helper()
	var lo, tag ids.ID
	env.Store.View(func(tx *store.Txn) {
		loDeg := -1
		for _, q := range tx.NodesOfKind(ids.KindPerson) {
			if d := tx.OutDegree(q, store.EdgeKnows); d > 0 && (loDeg < 0 || d < loDeg) {
				lo, loDeg = q, d
			}
		}
		// A tag of a friend's post, so hi's Q6 counts co-occurring tags.
		for _, f := range tx.Out(hi, store.EdgeKnows) {
			for _, m := range tx.In(f.To, store.EdgeHasCreator) {
				if tags := tx.Out(m.To, store.EdgeHasTag); tag == 0 && len(tags) > 0 {
					tag = tags[0].To
				}
			}
		}
	})
	mid := (datagen.SimStart + datagen.SimEnd) / 2
	for _, q := range []struct {
		name string
		run  func(p ids.ID)
	}{
		{"Q4", func(p ids.ID) { workload.Q4(v, sc, p, mid, datagen.SimEnd-mid) }},
		{"Q6", func(p ids.ID) { workload.Q6(v, sc, p, tag) }},
		{"Q7", func(p ids.ID) { workload.Q7(v, sc, p) }},
	} {
		q.run(hi) // warm the scratch to the larger working set
		hiAllocs := minAllocs(20, func() { q.run(hi) })
		loAllocs := minAllocs(20, func() { q.run(lo) })
		if hiAllocs != loAllocs {
			t.Fatalf("%s allocates %.1f times per run for %v and %.1f for %v: allocations track the keys", q.name, hiAllocs, hi, loAllocs, lo)
		}
	}
}
