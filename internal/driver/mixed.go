package driver

import (
	"context"
	"sync"
	"time"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/params"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// Mixed-workload execution: the full Interactive benchmark of §4 — update
// streams with dependency tracking, complex read-only queries at the
// Table 4 relative frequencies with curated parameters, and the short-read
// random walk seeded by complex-query results.
//
// Read execution is registry-driven: the driver walks the schedule and
// executes workload.Complex[q-1] (bind parameters, run, extract walk
// seeds) on the store's frozen snapshot views. There is no per-query
// dispatch in this package.

// MixedConfig parameterises a full Interactive run.
type MixedConfig struct {
	Store   *store.Store
	Dataset *schema.Dataset // full dataset; used for parameter curation
	Updates []schema.Update
	Streams int
	// ReadClients is the number of concurrent read-query executors.
	ReadClients int
	// ComplexPerType caps how many executions of each complex query
	// template the run performs (0 = derive from Table 4 frequencies and
	// the update count).
	ComplexPerType int
	// Seed drives parameter selection and the short-read walk.
	Seed uint64
	// Mix is the short-read random walk configuration.
	Mix workload.ShortReadMix
	// UniformParams switches Q5 parameter selection from curated to
	// uniform (the Figure 5(b) ablation).
	UniformParams bool
	// BIClients is the number of concurrent BI analyst clients cycling
	// the eight BI queries (bi.Registry) alongside the Interactive mix;
	// 0 disables the BI lane.
	BIClients int
	// BIWorkers is the morsel fan-out of each BI execution (0 = GOMAXPROCS
	// workers; 1 runs the scan on the client's goroutine).
	BIWorkers int
	// BIRounds is how many passes over the eight BI templates each BI
	// client makes (0 = 1).
	BIRounds int
	// Persist, when non-nil, is the durable handle of Store (snb-run
	// -data-dir): after the workload drains, the driver issues a WAL sync
	// barrier so every commit of the run is on disk, and snapshots the
	// durability counters into MixedReport.Persist. The store field of the
	// handle must be the same Store the run executes against.
	Persist *store.Persistent
	// Ctx, when non-nil, cancels the run: every lane (update streams, read
	// clients, BI clients) stops at its next operation boundary once Ctx
	// is done, and the report's Interrupted flag is set.
	// Cancellation never weakens durability — an update stream abandons
	// its remaining schedule but finishes the operation in flight, so
	// "Commit returned ⇒ durable" holds for everything the report counts
	// (snb-run's SIGINT/SIGTERM handler relies on this to shut down
	// cleanly mid-run).
	Ctx context.Context
}

// MixedReport is the outcome of a mixed run: the per-query latency tables
// of the paper's §5 evaluation.
type MixedReport struct {
	Complex [workload.NumComplexQueries]LatencyStats // Table 6
	Short   [workload.NumShortQueries]LatencyStats   // Table 7
	Update  [schema.NumUpdateTypes]LatencyStats      // Table 9
	// BI is the analyst lane's per-query latency bucket (BI1-BI8),
	// populated when MixedConfig.BIClients > 0. BI latencies are kept
	// apart from Complex: a BI execution is a graph-wide scan orders of
	// magnitude above the Interactive point queries, and folding the two
	// together would drown the Table 6 numbers.
	BI   [bi.NumQueries]LatencyStats
	Wall time.Duration
	// ViewAcquire aggregates the cost of every frozen-view acquisition the
	// read clients performed (twice per iteration — before the complex
	// query and again before the short-read walk, so the walk serves the
	// freshest epoch). ViewRefresh, ViewNewEra and ViewRebuild split the
	// same samples by the maintenance work the acquisition performed:
	// cache hits and incremental delta refreshes land in ViewRefresh,
	// compactions the reader ran itself in ViewRebuild: the run's first
	// view build, then one sample per trigger crossing — the era's overlay
	// plus the backlog of commits since the cached view passed the
	// compaction trigger (the commit log dropped the view's cursor), and
	// the next reader rebuilt inline. ViewNewEra holds the acquisitions
	// that returned a newer era than the client's previous one without
	// rebuilding it: the other readers' share of a trigger crossing, which
	// waited on the rebuild or found it done.
	ViewAcquire LatencyStats
	ViewRefresh LatencyStats
	ViewNewEra  LatencyStats
	ViewRebuild LatencyStats
	// Throughput is total executed operations per second (the §5 metric
	// alongside the acceleration factor).
	Throughput float64
	Errors     int
	// Persist carries the durability counters of the run (WAL bytes and
	// rotations, checkpoints, truncated segments) and FinalSync the cost
	// of the end-of-run fsync barrier; both only populated when
	// MixedConfig.Persist is set. A barrier failure counts into Errors
	// and is carried in FinalSyncErr so callers can report WHY the run
	// failed, not just that it did.
	Persist      *store.PersistStats
	FinalSync    time.Duration
	FinalSyncErr error
	// Interrupted reports that MixedConfig.Ctx was canceled before the
	// workload drained: the latency tables cover only the operations that
	// ran, and every counted commit is still durable.
	Interrupted bool
}

// numQ11Countries bounds the Q11 country parameter draw (the dict's
// country table size used by the generator).
const numQ11Countries = 25

// PreparePools runs the parameter-curation pipeline (§4.1) over a dataset
// — PC tables per query template, greedy window selection, plus value pools
// for the non-person parameters — and returns the pools. The mixed run and
// the serving layer bind from the same pools, so served and in-process
// executions draw from one distribution. uniform switches Q5 parameter
// selection from curated to uniform (the Figure 5(b) ablation).
func PreparePools(ds *schema.Dataset, seed uint64, uniform bool) *workload.ParamPools {
	r := xrand.New(seed, xrand.PurposeShortRead, 1)
	pp := &workload.ParamPools{
		CountryX:     0,
		CountryY:     1,
		NumCountries: numQ11Countries,
		MaxDate:      simEndOf(ds),
		WindowMillis: 120 * 24 * 3600 * 1000,
		BeforeYear:   2013,
	}
	pp.StartDate = pp.MaxDate - pp.WindowMillis

	_, q5, q9 := params.BuildPCTables(ds)
	for _, p := range q9.Curate(40) {
		pp.Persons = append(pp.Persons, ids.ID(p))
	}
	var sel []uint64
	if uniform {
		sel = q5.UniformSample(40, r.Uint64)
	} else {
		sel = q5.Curate(40)
	}
	for _, p := range sel {
		pp.PersonsQ5 = append(pp.PersonsQ5, ids.ID(p))
	}

	seen := map[string]bool{}
	for i := range ds.Persons {
		n := ds.Persons[i].FirstName
		if !seen[n] {
			seen[n] = true
			pp.FirstNames = append(pp.FirstNames, n)
		}
	}
	for i := 0; i < 40; i++ {
		pp.Tags = append(pp.Tags, schema.TagNodeID(r.Intn(400)))
		pp.TagClasses = append(pp.TagClasses, ids.DimensionID(ids.KindTagClass, uint32(r.Intn(20))))
	}
	return pp
}

func simEndOf(d *schema.Dataset) int64 {
	var end int64
	for i := range d.Posts {
		if d.Posts[i].CreationDate > end {
			end = d.Posts[i].CreationDate
		}
	}
	return end
}

// RunMixed executes the full Interactive workload and reports per-query
// latencies and throughput.
func RunMixed(cfg MixedConfig) *MixedReport {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.ReadClients <= 0 {
		cfg.ReadClients = 1
	}
	if cfg.Mix.P == 0 {
		cfg.Mix = workload.DefaultShortReadMix
	}
	qp := PreparePools(cfg.Dataset, cfg.Seed, cfg.UniformParams)
	rep := &MixedReport{}
	var mu sync.Mutex // guards rep during concurrent execution

	// Cancellation plumbing: every lane polls canceled() at its operation
	// boundaries. A nil Ctx yields a nil done channel, which never selects
	// — the poll is then one nil comparison.
	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	canceled := func() bool {
		if !stopped(done) {
			return false
		}
		mu.Lock()
		rep.Interrupted = true
		mu.Unlock()
		return true
	}

	start := time.Now()

	// Update streams run through replay, the scheduler Run uses, while
	// read clients interleave. A canceled stream abandons its remaining
	// schedule but never an operation in flight, so every counted commit
	// is durable. The connector times each operation into Table 9.
	var wg sync.WaitGroup
	var updates Report
	if len(cfg.Updates) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timed := connectorFunc(func(op *schema.Update) error {
				t0 := time.Now()
				err := workload.ApplyUpdate(cfg.Store, op)
				lat := time.Since(t0)
				if err == nil {
					mu.Lock()
					rep.Update[op.Type-1].Add(lat)
					mu.Unlock()
				}
				return err
			})
			streams := Partition(cfg.Updates, cfg.Streams)
			r := replay(Config{Connector: timed, Streams: len(streams), Mode: ModeUnpaced}, streams, done)
			mu.Lock()
			updates = r
			if r.Operations < len(cfg.Updates) {
				rep.Interrupted = true
			}
			mu.Unlock()
		}()
	}

	// Read clients: cycle the complex queries at Table 4 proportions.
	// Within one pass each query type runs once per its proportion slot;
	// cheaper (more frequent) queries therefore execute more often, like
	// the real mix.
	//
	// Each iteration acquires the store's frozen snapshot view twice —
	// once for the complex query and once more before the short-read
	// walk, so the walk observes commits that landed while the complex
	// query ran instead of serving a stale epoch for the whole iteration.
	// Each acquisition runs inside its own timed region recorded in
	// rep.ViewAcquire and split into rep.ViewRefresh / rep.ViewRebuild by
	// the maintenance event it performed — per-query latencies stay
	// comparable while the refresh-vs-rebuild tax stays visible in the
	// report.
	perType := cfg.ComplexPerType
	if perType == 0 {
		perType = 5
	}
	n := len(cfg.Dataset.Persons)
	schedule := buildSchedule(perType, n)
	for c := 0; c < cfg.ReadClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			r := xrand.New(cfg.Seed, xrand.PurposeShortRead, uint64(client)+100)
			sc := workload.NewScratch()
			var era eraTracker
			timer := func(kind int, d time.Duration) {
				mu.Lock()
				rep.Short[kind].Add(d)
				mu.Unlock()
			}
			for si := client; si < len(schedule); si += cfg.ReadClients {
				if canceled() {
					break
				}
				q := schedule[si]
				spec := &workload.Complex[q-1]
				p := spec.Bind(qp, r)
				tAcq := time.Now()
				v, ev := cfg.Store.AcquireView()
				acq := time.Since(tAcq)
				t0 := time.Now()
				res := spec.RunView(v, sc, p)
				lat := time.Since(t0)
				kind := era.kind(v, ev)
				mu.Lock()
				addAcquire(rep, kind, acq)
				rep.Complex[q-1].Add(lat)
				mu.Unlock()
				// Short-read random walk seeded by the results (§4). The walk
				// re-acquires the view so it serves the freshest epoch —
				// with delta maintenance the re-acquisition is a pointer
				// load or a per-delta refresh, not a rebuild.
				tAcq = time.Now()
				v, ev = cfg.Store.AcquireView()
				acq = time.Since(tAcq)
				kind = era.kind(v, ev)
				mu.Lock()
				addAcquire(rep, kind, acq)
				mu.Unlock()
				workload.RunShortReadChain(v, cfg.Mix, r, seedPersons(res, p), res.Messages, timer)
			}
		}(c)
	}
	// BI analyst lane: each client cycles the eight BI templates through
	// bi.Registry — bind parameters from the same curated pools, acquire
	// the current view (timed into ViewAcquire like the Interactive
	// clients' reads), scan it with BIWorkers workers, and record into the
	// lane's own latency bucket.
	par := exec.Config{Workers: cfg.BIWorkers}
	biRounds := cfg.BIRounds
	if biRounds <= 0 {
		biRounds = 1
	}
	for c := 0; c < cfg.BIClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			r := xrand.New(cfg.Seed, xrand.PurposeShortRead, uint64(client)+500)
			var era eraTracker
			for round := 0; round < biRounds; round++ {
				for q := range bi.Registry {
					if canceled() {
						return
					}
					spec := &bi.Registry[q]
					p := spec.Bind(qp, r)
					tAcq := time.Now()
					v, ev := cfg.Store.AcquireView()
					acq := time.Since(tAcq)
					t0 := time.Now()
					spec.RunPar(v, par, p)
					lat := time.Since(t0)
					kind := era.kind(v, ev)
					mu.Lock()
					addAcquire(rep, kind, acq)
					rep.BI[q].Add(lat)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	rep.Errors += updates.Errors

	// Durability barrier: a mixed run on a durable store ends with every
	// commit on disk, and the run's wall time owns that cost (fsync is
	// part of serving updates durably, not an accounting afterthought).
	if cfg.Persist != nil {
		t0 := time.Now()
		if err := cfg.Persist.Sync(); err != nil {
			rep.Errors++
			rep.FinalSyncErr = err
		}
		rep.FinalSync = time.Since(t0)
		st := cfg.Persist.Stats()
		rep.Persist = &st
	}

	rep.Wall = time.Since(start)
	total := updates.Operations
	for i := range rep.Complex {
		total += rep.Complex[i].Count
	}
	for i := range rep.Short {
		total += rep.Short[i].Count
	}
	for i := range rep.BI {
		total += rep.BI[i].Count
	}
	if rep.Wall > 0 {
		rep.Throughput = float64(total) / rep.Wall.Seconds()
	}
	return rep
}

// connectorFunc adapts a function to the Connector interface.
type connectorFunc func(op *schema.Update) error

// Execute calls f(op).
func (f connectorFunc) Execute(op *schema.Update) error { return f(op) }

// acquireKind is how an acquisition obtained its view, as MixedReport books
// it.
type acquireKind uint8

const (
	acquiredCached  acquireKind = iota // a hit or a delta refresh
	acquiredNewEra                     // a newer era that another reader rebuilt
	acquiredRebuilt                    // rebuilt by this acquisition
)

// eraTracker remembers the era of one client's previous view.
type eraTracker struct{ era uint64 }

// kind classifies an acquisition that returned v by event ev, and
// remembers v's era. A client's first acquisition has no previous era to
// compare with.
func (t *eraTracker) kind(v *store.SnapshotView, ev store.ViewEvent) acquireKind {
	prev := t.era
	t.era = v.Era()
	switch {
	case ev == store.ViewRebuilt:
		return acquiredRebuilt
	case prev != 0 && v.Era() > prev:
		return acquiredNewEra
	}
	return acquiredCached
}

// addAcquire records one view acquisition under the report lock: the
// aggregate stat plus its split by kind.
func addAcquire(rep *MixedReport, kind acquireKind, d time.Duration) {
	rep.ViewAcquire.Add(d)
	switch kind {
	case acquiredRebuilt:
		rep.ViewRebuild.Add(d)
	case acquiredNewEra:
		rep.ViewNewEra.Add(d)
	default:
		rep.ViewRefresh.Add(d)
	}
}

// seedPersons returns the walk's person seed pool: the query's result
// entities, falling back to the bound start person for queries that return
// none (Q4-Q6, Q13, Q14) or empty results.
func seedPersons(res workload.ComplexResult, p workload.ComplexParams) []ids.ID {
	if len(res.Persons) == 0 {
		return []ids.ID{p.Person}
	}
	return res.Persons
}

// buildSchedule expands the Table 4 mix into a concrete query sequence:
// query q appears inversely proportional to its scaled frequency (a query
// that runs once per 132 updates appears ~4x more often than one that runs
// once per 550).
func buildSchedule(perType, persons int) []int {
	minFreq := workload.ScaledFrequency(1, persons)
	for q := 2; q <= workload.NumComplexQueries; q++ {
		if f := workload.ScaledFrequency(q, persons); f < minFreq {
			minFreq = f
		}
	}
	var schedule []int
	for rep := 0; rep < perType; rep++ {
		for q := 1; q <= workload.NumComplexQueries; q++ {
			// Weight ∝ minFreq/freq, at least one slot per pass.
			weight := 1
			if f := workload.ScaledFrequency(q, persons); f > 0 {
				weight = 1 + (8*minFreq)/f
			}
			for w := 0; w < weight; w++ {
				schedule = append(schedule, q)
			}
		}
	}
	return schedule
}
