package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/query"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/server/client"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// served-read: the store behind its socket. An in-process server on a
// loopback listener, one connection per client, each client closed-looping
// Do over a seeded request list: 30% complex reads at the Table 4 weights,
// 40% short-read walks, 30% declarative queries carrying the registry
// texts. Nothing writes, so every view acquisition is a hit: framing,
// syscalls, admission, server-side binding and the plan cache are most of
// the op, and view maintenance and the WAL are bypassed.

// servedRate is round trips per second, both connections together, on the
// reference box.
const servedRate = 28000

// servedDistinct is the number of distinct requests the lists draw from.
// The curated pools hold 40 start persons, so a few thousand (class, op,
// seed) triples already cover what the server can be asked.
const servedDistinct = 4096

// servedDeadlineMs is far above any latency the loop should see: a timeout
// is a failed op, not a tuning knob.
const servedDeadlineMs = 2000

type servedRunner struct {
	ds      *dataset
	seed    uint64
	table   []server.Request // the distinct requests
	rows    []uint32         // in-process cardinality of each
	lists   [][]int32        // per client: indices into table
	srv     *server.Server
	served  chan error
	clients []*client.Client
	plans   map[string]*query.Plan
	shed0   server.Stats
}

func prepareServed(ds *dataset, cfg *config, n int) (runner, error) {
	r := &servedRunner{ds: ds, seed: cfg.seed, plans: map[string]*query.Plan{}}
	// Categories of the request table: Q1..Q14 sharing 30% at the Table 4
	// weights, the short-read walk 40%, the registry texts sharing 30%.
	weights, perRead := complexWeights(cfg.persons)
	for q := range weights {
		weights[q] *= 0.30 * perRead
	}
	weights = append(weights, 0.40)
	for range query.Registry {
		weights = append(weights, 0.30/float64(len(query.Registry)))
	}
	rnd := xrand.New(cfg.seed, purposeRequest)
	r.table = make([]server.Request, servedDistinct)
	for i, cat := range stratified(weights, len(r.table), rnd) {
		req := server.Request{DeadlineMs: servedDeadlineMs, Seed: rnd.Uint64()}
		switch {
		case cat < workload.NumComplexQueries:
			req.Class, req.Op = server.ClassComplex, byte(cat+1)
		case cat == workload.NumComplexQueries:
			req.Class = server.ClassShort
		default:
			req.Class, req.Query = server.ClassQuery, query.Registry[cat-workload.NumComplexQueries-1].Text
		}
		r.table[i] = req
	}
	for _, spec := range query.Registry {
		r.plans[spec.Text] = spec.Plan()
	}
	sc := workload.NewScratch()
	qsc := query.WrapScratch(sc)
	r.rows = make([]uint32, len(r.table))
	for i := range r.table {
		rows, err := r.inProcess(&r.table[i], ds.view, sc, qsc)
		if err != nil {
			return nil, err
		}
		r.rows[i] = rows
	}

	// Each client walks the whole table in its own seeded order, over and
	// over, so the lists keep the table's composition.
	r.lists = make([][]int32, clients())
	for c := range r.lists {
		pick := xrand.New(cfg.seed, purposeSchedule, uint64(c))
		list := make([]int32, 0, n/len(r.lists)+len(r.table))
		for len(list) < n/len(r.lists) {
			lap := len(list)
			for i := range r.table {
				list = append(list, int32(i))
			}
			for i := len(list) - 1; i > lap; i-- {
				k := lap + pick.Intn(i-lap+1)
				list[i], list[k] = list[k], list[i]
			}
		}
		r.lists[c] = list[:n/len(r.lists)]
	}

	// Two connections may both carry a declarative query, which rides the
	// BI gate: give that gate a slot per connection so that, like the
	// interactive gate (4 slots), it never queues here.
	r.srv = server.New(server.Config{Store: ds.store, Pools: ds.pools, Seed: cfg.seed,
		BI: server.GateConfig{Slots: clients()}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	for range r.lists {
		r.clients = append(r.clients, client.New(client.Options{Addr: ln.Addr().String(), Seed: cfg.seed}))
	}
	return r, nil
}

// inProcess answers a request the way the server does (same binding seed
// rule, same entry points) without the wire, admission or deadline.
func (r *servedRunner) inProcess(req *server.Request, v *store.SnapshotView, sc *workload.Scratch, qsc *query.Scratch) (uint32, error) {
	rnd := xrand.New(r.seed, xrand.PurposeShortRead, req.Seed)
	switch req.Class {
	case server.ClassComplex:
		spec := &workload.Complex[req.Op-1]
		res := spec.RunView(v, sc, spec.Bind(r.ds.pools, rnd))
		return uint32(len(res.Persons) + len(res.Messages)), nil
	case server.ClassShort:
		persons := []ids.ID{r.ds.pools.Persons[rnd.Intn(len(r.ds.pools.Persons))]}
		total := 0
		for _, k := range workload.RunShortReadChain(v, workload.DefaultShortReadMix, rnd, persons, nil, nil) {
			total += k
		}
		return uint32(total), nil
	case server.ClassQuery:
		res, err := query.Run(v, qsc, r.plans[req.Query], query.StandardParams(r.ds.pools, rnd))
		if err != nil {
			return 0, err
		}
		return uint32(len(res.Rows)), nil
	}
	return 0, fmt.Errorf("class %d is not part of served-read", req.Class)
}

func (r *servedRunner) entries() int { return len(r.lists) * len(r.lists[0]) }

// capacity: each client's share of a range rounds on its own.
func (r *servedRunner) capacity(n int) (samples, spans int) {
	return n + len(r.lists), n + len(r.lists)
}

// verify sends a seeded sample of the table over the wire: the cardinality
// the server reports must equal the in-process one. (The timed loop checks
// every response the same way.)
func (r *servedRunner) verify() error {
	pick := xrand.New(r.seed, purposeSample)
	for k := 0; k < 256; k++ {
		i := pick.Intn(len(r.table))
		resp, err := r.clients[0].Do(&r.table[i])
		if err != nil {
			return err
		}
		if resp.Status != server.StatusOK || resp.Rows != r.rows[i] {
			return fmt.Errorf("request %+v: served status %d rows %d, in-process rows %d", r.table[i], resp.Status, resp.Rows, r.rows[i])
		}
	}
	return nil
}

func (r *servedRunner) run(lo, hi int, rec *recorder) {
	r.shed0 = r.srv.Stats()
	var wg sync.WaitGroup
	for c := range r.lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, list := r.clients[c], r.lists[c]
			for i := lo / len(r.lists); i < hi/len(r.lists); i++ {
				req := r.table[list[i]]
				req.ReqID = uint64(c)<<32 | uint64(i)
				t0 := time.Now()
				resp, err := cl.Do(&req)
				t1 := time.Now()
				ok := err == nil && resp.Status == server.StatusOK && resp.Rows == r.rows[list[i]]
				rec.outcome(ok)
				if ok {
					rec.tr.add(spClientDo, -1, int64(resp.ServerMicros), t0, t1)
					rec.sample(t1.Sub(t0))
				}
				if rec.expired(t1) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func (r *servedRunner) finish(rec *recorder, m metrics) error { return nil }

func (r *servedRunner) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx) // the store is discarded with the process
	<-r.served
}

// layers splits the round trip. The spans give the client-observed time and
// the server's own clock (ServerMicros); the rest are side probes run after
// the timed section: a ping loop (wire, frame and dispatch only), the same
// requests executed in process, the codec alone, and the declarative layer
// against the hand-written queries.
func (r *servedRunner) layers(tr *tracer, m metrics) {
	spans := tr.recorded()
	var serverUs, wireNs []int64
	for i := range spans {
		if s := &spans[i]; s.name == spClientDo {
			serverUs = append(serverUs, s.tag)
			wireNs = append(wireNs, s.end-s.start-s.tag*1000)
		}
	}
	clientP50 := quantile(tr.durations(spClientDo, nil), 0.50)
	m["server.server_micros_p50"] = float64(quantile(sortInt64(serverUs), 0.50))
	m["server.wire_p50_us"] = usOf(quantile(sortInt64(wireNs), 0.50))

	ping := server.Request{Class: server.ClassPing}
	pings := make([]int64, 0, 5000)
	for i := 0; i < cap(pings); i++ {
		t0 := time.Now()
		if resp, err := r.clients[0].Do(&ping); err == nil && resp.Status == server.StatusOK {
			pings = append(pings, int64(time.Since(t0)))
		}
	}
	m["server.ping_p50_us"] = usOf(quantile(sortInt64(pings), 0.50))

	sc := workload.NewScratch()
	qsc := query.WrapScratch(sc)
	v, _ := r.ds.store.AcquireView()
	inproc := make([]int64, 0, 20000)
	for _, i := range r.lists[0][:min(cap(inproc), len(r.lists[0]))] {
		t0 := time.Now()
		r.inProcess(&r.table[i], v, sc, qsc)
		inproc = append(inproc, int64(time.Since(t0)))
	}
	inprocP50 := quantile(sortInt64(inproc), 0.50)
	m["server.exec_inproc_p50_us"] = usOf(inprocP50)
	m["server.overhead_ratio"] = ratio(float64(clientP50), float64(inprocP50))

	const codecReps = 200000
	var buf []byte
	resp := server.Response{Status: server.StatusOK, Rows: 20, ServerMicros: 42}
	t0 := time.Now()
	for i := 0; i < codecReps; i++ {
		req := &r.table[i%len(r.table)]
		buf = server.AppendRequest(buf[:0], req)
		server.ParseRequest(buf[4:])
		buf = server.AppendResponse(buf[:0], &resp)
		server.ParseResponse(buf[4:])
	}
	m["server.codec_ns_per_req"] = float64(time.Since(t0)) / codecReps

	st := r.srv.Stats()
	m["server.shed"] = float64(st.Shed - r.shed0.Shed)
	m["server.timeouts"] = float64(st.TimedOut - r.shed0.TimedOut)
	var retries int64
	for _, cl := range r.clients {
		retries += cl.Counters().Retries
	}
	m["client.retries"] = float64(retries)

	r.queryLayer(v, qsc, m)
}

// queryLayer times the declarative layer by its public steps: parse and
// compile of the registry texts, RunView of the compiled plans, and the same
// three queries hand-written (workload.Complex) on the same start persons.
func (r *servedRunner) queryLayer(v *store.SnapshotView, qsc *query.Scratch, m metrics) {
	const reps = 200
	var parseNs, compileNs time.Duration
	for i := 0; i < reps; i++ {
		for _, spec := range query.Registry {
			t0 := time.Now()
			q, err := query.Parse(spec.Text)
			t1 := time.Now()
			if err != nil {
				continue
			}
			query.Compile(q)
			parseNs += t1.Sub(t0)
			compileNs += time.Since(t1)
		}
	}
	calls := float64(reps * len(query.Registry))
	m["query.parse_us_mean"] = float64(parseNs) / calls / 1e3
	m["query.compile_us_mean"] = float64(compileNs) / calls / 1e3

	var declRuns []int64
	var declNs, handNs time.Duration
	for _, spec := range query.Registry {
		var hand *workload.ComplexSpec // the registry follows workload.Complex's names
		for i := range workload.Complex {
			if workload.Complex[i].Name == spec.Name {
				hand = &workload.Complex[i]
			}
		}
		if hand == nil {
			continue
		}
		for i := 0; i < 300; i++ {
			p := spec.Bind(r.ds.pools, xrand.New(r.seed, purposeBind, uint64(i)))
			t0 := time.Now()
			spec.RunView(v, qsc, p)
			d := time.Since(t0)
			declRuns = append(declRuns, int64(d))
			declNs += d

			hp := hand.Bind(r.ds.pools, xrand.New(r.seed, purposeBind, uint64(i)))
			t0 = time.Now()
			hand.RunView(v, qsc.W, hp)
			handNs += time.Since(t0)
		}
	}
	m["query.run_view_p50_us"] = usOf(quantile(sortInt64(declRuns), 0.50))
	m["query.decl_vs_hand_ratio"] = ratio(float64(declNs), float64(handNs))
}
