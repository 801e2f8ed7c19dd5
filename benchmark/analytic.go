package main

import (
	"fmt"
	"runtime"
	"time"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// analytic: one analyst refreshing a report of BI1-BI8 on one frozen view
// through the morsel-parallel path, the eight queries in a seeded order each
// time; the op is one query. It uses the same view layer as the interactive
// reads, but as full scans: every CSR row is decoded, the decode cache is at
// its largest, and the morsel scheduler and per-worker partials are on the
// path. A change that speeds point traversals at the cost of scans, or the
// reverse, shows here, and heap_mb here is the populated-cache footprint.

// analyticRate is BI queries per second on the reference box.
const analyticRate = 232

type analyticRunner struct {
	ds     *dataset
	view   *store.SnapshotView
	par    exec.Config
	params [bi.NumQueries]bi.Params
	rows   [bi.NumQueries]int // cardinality on the frozen view, from the txn path
	order  []uint8            // the op list: query indices, report after report
}

func prepareAnalytic(ds *dataset, cfg *config, n int) (runner, error) {
	r := &analyticRunner{ds: ds, view: ds.view, par: exec.Config{Workers: runtime.GOMAXPROCS(0)}}
	rnd := xrand.New(cfg.seed, purposeBind)
	for q := range bi.Registry {
		r.params[q] = bi.Registry[q].Bind(ds.pools, rnd)
	}
	shuffle := xrand.New(cfg.seed, purposeSchedule)
	for len(r.order) < n {
		o := len(r.order)
		for q := 0; q < bi.NumQueries; q++ {
			r.order = append(r.order, uint8(q))
		}
		for q := bi.NumQueries - 1; q > 0; q-- {
			k := shuffle.Intn(q + 1)
			r.order[o+q], r.order[o+k] = r.order[o+k], r.order[o+q]
		}
	}
	return r, nil
}

func (r *analyticRunner) entries() int { return len(r.order) }

func (r *analyticRunner) capacity(n int) (samples, spans int) { return n, n }

// verify runs every query on all three paths; the cardinalities must agree.
// Nothing commits during this workload, so the txn path reads the state the
// frozen view holds.
func (r *analyticRunner) verify() error {
	sc := workload.NewScratch()
	for q := range bi.Registry {
		spec := &bi.Registry[q]
		r.ds.store.View(func(tx *store.Txn) { r.rows[q] = spec.RunTxn(tx, sc, r.params[q]).Rows })
		serial := spec.RunView(r.view, sc, r.params[q]).Rows
		par := spec.RunPar(r.view, r.par, r.params[q]).Rows
		if serial != r.rows[q] || par != r.rows[q] {
			return fmt.Errorf("%s: txn path %d rows, serial view %d, parallel view %d", spec.Name, r.rows[q], serial, par)
		}
	}
	return nil
}

func (r *analyticRunner) run(lo, hi int, rec *recorder) {
	for _, q := range r.order[lo:hi] {
		t0 := time.Now()
		res := bi.Registry[q].RunPar(r.view, r.par, r.params[q])
		t1 := time.Now()
		ok := res.Rows == r.rows[q]
		rec.outcome(ok)
		if ok {
			rec.tr.add(spRunPar, -1, int64(q+1), t0, t1)
			rec.sample(t1.Sub(t0))
		}
		if rec.expired(t1) {
			return
		}
	}
}

func (r *analyticRunner) finish(rec *recorder, m metrics) error { return nil }

// layers reports each query's median and compares one parallel report (the
// sum of the eight medians) with a serial one through RunView on the same
// view; the base of exec.par_speedup is the serial report.
func (r *analyticRunner) layers(tr *tracer, m metrics) {
	var parPass int64
	for q := 1; q <= bi.NumQueries; q++ {
		p50 := quantile(tr.durations(spRunPar, func(s *span) bool { return s.tag == int64(q) }), 0.50)
		m[fmt.Sprintf("bi.bi%d_p50_us", q)] = usOf(p50)
		parPass += p50
	}
	sc := workload.NewScratch()
	var serial [bi.NumQueries][]int64
	for pass := 0; pass < 5; pass++ {
		for q := range bi.Registry {
			t0 := time.Now()
			bi.Registry[q].RunView(r.view, sc, r.params[q])
			serial[q] = append(serial[q], int64(time.Since(t0)))
		}
	}
	var serialPass int64
	for q := range serial {
		serialPass += quantile(sortInt64(serial[q]), 0.50)
	}
	m["bi.serial_pass_ms"] = msOf(serialPass)
	m["exec.par_speedup"] = ratio(float64(serialPass), float64(parPass))
}

func (r *analyticRunner) close() {}
