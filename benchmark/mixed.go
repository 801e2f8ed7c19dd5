package main

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// interactive-mixed: the paper's Interactive mix (§4) in process on an
// in-memory store. One reader walks a seeded schedule of Q1-Q14 at the
// Table 4 frequencies, each followed by its short-read walk; after every
// complex read it releases that read's share of the update stream to one
// updater, which replays it in due-time order. Commits therefore invalidate
// the view under the reader all the time: view refresh and rebuild, commit
// and the query kernels all sit on the blocking path. The quota couples the
// two sides, so the same seed executes the same reads and commits in every
// run whatever the speed of the box.

// mixedRate is complex reads (list entries) per second on the reference box.
const mixedRate = 600

// Stream purposes of the harness's own random draws, kept clear of the
// values internal/xrand hands out.
const (
	purposeSchedule uint64 = 1000 + iota
	purposeBind
	purposeWalk
	purposeSample
	purposeRequest
)

type mixedOp struct {
	q    int // 1..14
	p    workload.ComplexParams
	walk uint64 // seed of the short-read walk that follows
}

type mixedRunner struct {
	ds      *dataset
	ops     []mixedOp
	quota   []int // updates released after op i
	next    int   // first update not yet applied
	bindNs  float64
	seed    uint64
	scratch *workload.Scratch
}

// complexWeights returns the Table 4 mix at this dataset size as a weight per
// query (query q runs once per ScaledFrequency(q) updates), and the number of
// updates the mix runs per complex read.
func complexWeights(persons int) (w []float64, updatesPerRead float64) {
	var sum float64
	for q := 1; q <= workload.NumComplexQueries; q++ {
		w = append(w, 1/float64(workload.ScaledFrequency(q, persons)))
		sum += w[q-1]
	}
	return w, 1 / sum
}

// stratified returns n draws from the categories 0..len(weights)-1 in a
// seeded order, with every category's count fixed at its share of n
// (largest remainders make up the rounding). Independent draws would make
// the count of a rare, expensive category (Q6 is 0.4% of complex reads and
// 7 ms) differ by +-15% from seed to seed, and the run's tail with it; this
// way seeds differ in order and parameters, not in composition.
func stratified(weights []float64, n int, rnd *xrand.Rand) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rest := make([]float64, len(weights))
	total := 0
	for i, w := range weights {
		exact := w / sum * float64(n)
		counts[i] = int(exact)
		rest[i] = exact - float64(counts[i])
		total += counts[i]
	}
	for ; total < n; total++ {
		best := 0
		for i := range rest {
			if rest[i] > rest[best] {
				best = i
			}
		}
		counts[best]++
		rest[best] = -1
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		k := rnd.Intn(i + 1)
		out[i], out[k] = out[k], out[i]
	}
	return out
}

func prepareMixed(ds *dataset, cfg *config, n int) (runner, error) {
	weights, perRead := complexWeights(cfg.persons)
	// The update stream bounds the list: a run never outlives its writes.
	if most := int(float64(len(ds.updates)) / perRead); n > most {
		fmt.Fprintf(os.Stderr, "interactive-mixed: op list cut from %d to %d reads by the update stream's length\n", n, most)
		n = most
	}
	r := &mixedRunner{ds: ds, seed: cfg.seed, scratch: workload.NewScratch()}
	sched := stratified(weights, n, xrand.New(cfg.seed, purposeSchedule))
	bind := xrand.New(cfg.seed, purposeBind)
	r.ops = make([]mixedOp, n)
	r.quota = make([]int, n)
	released := 0
	t0 := time.Now()
	for i := range r.ops {
		q := sched[i] + 1
		r.ops[i] = mixedOp{q: q, p: workload.Complex[q-1].Bind(ds.pools, bind), walk: xrand.Mix(cfg.seed, purposeWalk, uint64(i))}
		upTo := int(float64(i+1) * perRead)
		r.quota[i] = upTo - released
		released = upTo
	}
	r.bindNs = float64(time.Since(t0)) / float64(n)
	return r, nil
}

func (r *mixedRunner) entries() int { return len(r.ops) }

func (r *mixedRunner) capacity(n int) (samples, spans int) {
	// A walk makes at most 6 steps (P=0.9 falling by 0.15); a list entry is
	// two root ops, two acquires, the query, the walk and its steps, and
	// its share of updates.
	return 7 * n, 20 * n
}

func seedPersons(res workload.ComplexResult, p workload.ComplexParams) []ids.ID {
	if len(res.Persons) == 0 {
		return []ids.ID{p.Person}
	}
	return res.Persons
}

// verify runs a seeded sample of the op list on the current view and in an
// MVCC transaction: query results and the walks they seed must agree.
func (r *mixedRunner) verify() error {
	pick := xrand.New(r.seed, purposeSample)
	st := r.ds.store
	v, _ := st.AcquireView()
	txSc := workload.NewScratch()
	for k := 0; k < 64; k++ {
		op := &r.ops[pick.Intn(len(r.ops))]
		spec := &workload.Complex[op.q-1]
		viewRes := spec.RunView(v, r.scratch, op.p)
		var txnRes workload.ComplexResult
		var viewWalk, txnWalk workload.ShortReadStats
		st.View(func(tx *store.Txn) {
			txnRes = spec.RunTxn(tx, txSc, op.p)
			txnWalk = workload.RunShortReadChain(tx, workload.DefaultShortReadMix, xrand.New(op.walk), seedPersons(txnRes, op.p), txnRes.Messages, nil)
		})
		if !reflect.DeepEqual(viewRes, txnRes) {
			return fmt.Errorf("%s with %+v: view path and txn path disagree", spec.Name, op.p)
		}
		viewWalk = workload.RunShortReadChain(v, workload.DefaultShortReadMix, xrand.New(op.walk), seedPersons(viewRes, op.p), viewRes.Messages, nil)
		if viewWalk != txnWalk {
			return fmt.Errorf("short-read walk after %s: view path %v, txn path %v", spec.Name, viewWalk, txnWalk)
		}
	}
	return nil
}

func (r *mixedRunner) run(lo, hi int, rec *recorder) {
	st, tr := r.ds.store, rec.tr
	// One quota in flight: the reader runs at most two reads' worth of
	// updates ahead of the updater, the updater never ahead of the reader.
	quota := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range quota {
			for ; k > 0; k-- {
				u := &r.ds.updates[r.next]
				r.next++
				t0 := time.Now()
				err := workload.ApplyUpdate(st, u)
				tr.add(spApplyUpdate, -1, int64(u.Type), t0, time.Now())
				rec.outcome(err == nil)
			}
		}
	}()

	for i := lo; i < hi; i++ {
		op := &r.ops[i]
		spec := &workload.Complex[op.q-1]

		t0 := time.Now()
		root := tr.open(spComplexOp, -1, t0)
		v, ev := st.AcquireView()
		t1 := time.Now()
		res := spec.RunView(v, r.scratch, op.p)
		t2 := time.Now()
		tr.add(spAcquireView, root, int64(ev), t0, t1)
		tr.add(spRunComplex, root, int64(op.q), t1, t2)
		tr.close(root, int64(op.q), t2)
		rec.sample(t2.Sub(t0))
		rec.outcome(true)

		quota <- r.quota[i]

		// The walk re-acquires the view so it reads the freshest epoch; the
		// acquisition is charged to the walk's first step.
		t3 := time.Now()
		root = tr.open(spChainOp, -1, t3)
		v, ev = st.AcquireView()
		t4 := time.Now()
		chain := tr.open(spShortChain, root, t4)
		acquire := t4.Sub(t3)
		workload.RunShortReadChain(v, workload.DefaultShortReadMix, xrand.New(op.walk), seedPersons(res, op.p), res.Messages,
			func(kind int, d time.Duration) {
				if tr != nil {
					end := time.Now()
					tr.add(spShortStep, chain, int64(kind), end.Add(-d), end)
				}
				rec.sample(d + acquire)
				rec.outcome(true)
				acquire = 0
			})
		t5 := time.Now()
		tr.add(spAcquireView, root, int64(ev), t3, t4)
		tr.close(chain, 0, t5)
		tr.close(root, 0, t5)
		if rec.expired(t5) {
			break
		}
	}
	close(quota)
	wg.Wait()
}

// finish repeats the view-versus-txn check on the end state, after every
// released update has committed.
func (r *mixedRunner) finish(rec *recorder, m metrics) error {
	m["store.commit_errors"] = float64(rec.failed.Load()) // reads cannot fail
	if err := r.verify(); err != nil {
		return fmt.Errorf("verification after the run: %w", err)
	}
	v, _ := r.ds.store.AcquireView()
	pick := xrand.New(r.seed, purposeSample, 1)
	for k := 0; k < 256 && r.next > 0; k++ {
		if u := &r.ds.updates[pick.Intn(r.next)]; !present(v, u) {
			rec.outcome(false)
			fmt.Fprintf(os.Stderr, "interactive-mixed: committed %s is not visible\n", u.Type)
		}
	}
	return nil
}

func (r *mixedRunner) layers(tr *tracer, m metrics) {
	acquires := tr.durations(spAcquireView, nil)
	m["store.acquire_view_p50_us"] = usOf(quantile(acquires, 0.50))
	m["store.acquire_view_p99_us"] = usOf(quantile(acquires, 0.99))
	readerNs := sum(tr.durations(spComplexOp, nil)) + sum(tr.durations(spChainOp, nil))
	m["store.acquire_view_share"] = ratio(float64(sum(acquires)), float64(readerNs))
	event := func(ev store.ViewEvent) []int64 {
		return tr.durations(spAcquireView, func(s *span) bool { return store.ViewEvent(s.tag) == ev })
	}
	m["store.view_refresh_us_mean"] = mean(event(store.ViewRefreshed)) / 1e3
	rebuilds := event(store.ViewRebuilt)
	m["store.view_rebuild_ms_mean"] = mean(rebuilds) / 1e6
	m["store.view_rebuild_ms_max"] = msOf(quantile(rebuilds, 1))

	commits := tr.durations(spApplyUpdate, nil)
	m["store.commit_p50_us"] = usOf(quantile(commits, 0.50))
	m["store.commit_p99_us"] = usOf(quantile(commits, 0.99))

	m["workload.bind_us_mean"] = r.bindNs / 1e3
	complexAll := tr.durations(spRunComplex, nil)
	m["workload.complex_p50_us"] = usOf(quantile(complexAll, 0.50))
	m["workload.complex_p99_us"] = usOf(quantile(complexAll, 0.99))
	m["workload.short_p50_us"] = usOf(quantile(tr.durations(spShortStep, nil), 0.50))
	for q := 1; q <= workload.NumComplexQueries; q++ {
		d := tr.durations(spRunComplex, func(s *span) bool { return s.tag == int64(q) })
		m[fmt.Sprintf("workload.q%d_p50_us", q)] = usOf(quantile(d, 0.50))
	}
}

func (r *mixedRunner) close() {}
