// Command benchmark is the repository's one measurement harness: it builds
// a dataset from a seed, verifies results, runs one closed-loop workload
// against the layers' public functions and prints every metric by name with
// its unit as one JSON object. README.md defines the workloads and metrics;
// ../BENCHMARK.json is the machine-readable contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	persons  int
	outDir   string // trace files and data directories
}

// workloadDef names one workload. A run is `rounds` rounds, each on a fresh
// dataset. rate is the number of op-list entries the reference box (2
// cores) completes per second of timed section; the rounds' lists together
// hold rate x seconds entries, fixed before the run starts, so the same seed
// and seconds always execute the same ops.
type workloadDef struct {
	name       string
	persistent bool // the store is opened on a data directory
	rounds     int
	rate       float64
	prepare    func(ds *dataset, cfg *config, n int) (runner, error)
}

// runner is one workload bound to a dataset, with its op list generated.
type runner interface {
	// entries is the op list's length: the n asked for, or fewer when the
	// dataset's update stream cannot feed that many.
	entries() int
	// verify checks a seeded sample of the op list against the second
	// implementation of the same answer (txn path, serial path, in-process
	// execution). It runs before timing and is part of setup_s.
	verify() error
	// capacity bounds the latency samples and spans that n list entries
	// can produce.
	capacity(n int) (samples, spans int)
	// run executes list entries [lo, hi) as a closed loop and returns when
	// every client has finished.
	run(lo, hi int, rec *recorder)
	// finish runs after the timed section and the heap reading: end-state
	// verification, whose failures it adds to rec.
	finish(rec *recorder, m metrics) error
	// layers adds the workload's per-layer metrics from the pass's spans
	// and from side probes.
	layers(tr *tracer, m metrics)
	close()
}

var workloads = []workloadDef{
	{name: "interactive-mixed", rounds: 3, rate: mixedRate, prepare: prepareMixed},
	{name: "update-wal", persistent: true, rounds: 6, rate: walRate, prepare: prepareWAL},
	{name: "served-read", rounds: 3, rate: servedRate, prepare: prepareServed},
	{name: "analytic", rounds: 3, rate: analyticRate, prepare: prepareAnalytic},
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"heap_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// metrics maps a metric name to its value; a name no workload sets reads 0
// (the layer is not on that workload's path).
type metrics map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (m metrics) project(defs []metricDef) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out
}

// checkNames fails on a metric no table declares, so a misspelt name cannot
// silently read 0.
func (m metrics) checkNames() error {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %q is not declared", name)
		}
	}
	return nil
}

// passResult is what one pass observed.
type passResult struct {
	m         metrics
	attempted int64
	failed    int64
}

// usage is the process's CPU time and allocator counters at one instant, or
// a sum of their growth over timed sections.
type usage struct {
	cpu                            time.Duration
	mallocs, allocBytes, gcPauseNs uint64
	gcCycles                       uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	var ms runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs, gcCycles: ms.NumGC,
	}
}

// grow adds what happened between two readings.
func (u *usage) grow(from, to usage) {
	u.cpu += to.cpu - from.cpu
	u.mallocs += to.mallocs - from.mallocs
	u.allocBytes += to.allocBytes - from.allocBytes
	u.gcPauseNs += to.gcPauseNs - from.gcPauseNs
	u.gcCycles += to.gcCycles - from.gcCycles
}

// pass is one measurement of a workload: a number of rounds, each on a
// freshly built dataset with its own op list, pooled. Pooling rounds is what
// lets setup_s be a median of whole set-ups, and it lets update-wal, whose
// op supply is the dataset's own update stream, measure more than one
// stream's worth of work.
type pass struct {
	cfg    *config
	w      *workloadDef
	rec    *recorder // every round's samples, outcomes and spans
	traced bool

	setups, heaps []float64
	wall          time.Duration           // the timed sections
	used          usage                   // over the timed sections
	views         store.ViewStatsSnapshot // over the timed sections
	m             metrics
}

// round builds a dataset, prepares and verifies the workload on it, discards
// a warm-up over the first tenth of the op list and times the rest.
func (p *pass) round(i int) error {
	rounds := p.w.rounds
	t0 := time.Now()
	ds, err := build(p.cfg, p.w.persistent)
	if err != nil {
		return err
	}
	defer ds.close()
	cfg := *p.cfg
	cfg.seed = xrand.Mix(p.cfg.seed, uint64(i))
	n := int(p.w.rate * cfg.seconds / float64(rounds) / 0.9)
	if n < 20 {
		n = 20
	}
	r, err := p.w.prepare(ds, &cfg, n)
	if err != nil {
		return err
	}
	defer r.close()
	n = r.entries()
	if err := r.verify(); err != nil {
		return fmt.Errorf("verification before timing: %w", err)
	}
	warm := n / 10
	samples, _ := r.capacity(warm)
	warmRec := newRecorder(samples, nil)
	r.run(0, warm, warmRec)
	if f := warmRec.failed.Load(); f > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed", f, warmRec.attempted.Load())
	}
	runtime.GC()
	p.setups = append(p.setups, time.Since(t0).Seconds())

	if p.rec == nil {
		samples, spans := r.capacity(n - warm)
		var tr *tracer
		if p.traced {
			tr = newTracer(spans * rounds)
		}
		p.rec = newRecorder(samples*rounds, tr)
	}
	// A box half as fast as the reference still finishes its lists; beyond
	// that a round stops early and says so.
	p.rec.deadline = time.Now().Add(time.Duration(2*cfg.seconds/float64(rounds)*float64(time.Second)) + time.Second)
	views0 := ds.store.ViewStats()
	u0 := readUsage()
	start := time.Now()
	r.run(warm, n, p.rec)
	wall := time.Since(start)
	u1 := readUsage()
	views1 := ds.store.ViewStats()
	if p.rec.expired(time.Now()) {
		fmt.Fprintf(os.Stderr, "%s: op list cut short at the time cap; counts differ from a full run\n", p.w.name)
	}
	p.wall += wall
	p.used.grow(u0, u1)
	p.views.Refreshes += views1.Refreshes - views0.Refreshes
	p.views.Rebuilds += views1.Rebuilds - views0.Rebuilds
	p.views.EraBumps += views1.EraBumps - views0.EraBumps
	p.views.Overflows += views1.Overflows - views0.Overflows

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heaps = append(p.heaps, float64(ms.HeapInuse)/(1<<20))
	fmt.Fprintf(os.Stderr, "%s: round %d/%d: set-up %.2f s, timed section %.2f s, heap %.0f MiB\n",
		p.w.name, i+1, rounds, p.setups[i], wall.Seconds(), p.heaps[i])

	if err := r.finish(p.rec, p.m); err != nil {
		return err
	}
	if i < rounds-1 {
		return nil
	}
	// Per-layer numbers that need the live dataset come from the last round;
	// the spans they read are those of every round.
	p.m["datagen.generate_s"] = ds.generate.Seconds()
	p.m["schema.load_s"] = ds.load.Seconds()
	p.m["driver.prepare_pools_s"] = ds.curate.Seconds()
	p.m["store.first_view_ms"] = msOf(int64(ds.firstView))
	vm := ds.store.CurrentView().MemStats()
	p.m["store.view_mb"] = float64(vm.TotalBytes()) / (1 << 20)
	p.m["store.adj_cache_mb"] = float64(vm.AdjCacheBytes) / (1 << 20)
	p.m["store.view_bytes_per_edge"] = vm.BytesPerEdge()
	if p.traced {
		r.layers(p.rec.tr, p.m)
	}
	return nil
}

func runPass(cfg *config, w *workloadDef, traced bool) (*passResult, error) {
	p := &pass{cfg: cfg, w: w, traced: traced, m: metrics{}}
	for i := 0; i < w.rounds; i++ {
		if err := p.round(i); err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
	}
	m, rec := p.m, p.rec
	lat := rec.sorted()
	ops := float64(len(lat))
	m["setup_s"] = medianFloat(p.setups)
	m["throughput_ops"] = ops / p.wall.Seconds()
	m["op_p50_us"] = usOf(quantile(lat, 0.50))
	m["op_p99_us"] = usOf(quantile(lat, 0.99))
	m["heap_mb"] = medianFloat(p.heaps)

	m["store.view_refreshes"] = float64(p.views.Refreshes)
	m["store.view_rebuilds"] = float64(p.views.Rebuilds)
	m["store.view_era_bumps"] = float64(p.views.EraBumps)
	m["store.view_overflows"] = float64(p.views.Overflows)
	m["go.cpu_us_per_op"] = ratio(usOf(int64(p.used.cpu)), ops)
	m["go.allocs_per_op"] = ratio(float64(p.used.mallocs), ops)
	m["go.alloc_kb_per_op"] = ratio(float64(p.used.allocBytes)/1024, ops)
	m["go.gc_cycles"] = float64(p.used.gcCycles)
	m["go.gc_pause_ms_total"] = msOf(int64(p.used.gcPauseNs))
	m["bench.op_p999_us"] = usOf(quantile(lat, 0.999))
	m["bench.op_max_ms"] = msOf(quantile(lat, 1))
	m["bench.samples"] = ops
	if traced {
		if err := rec.tr.write(filepath.Join(cfg.outDir, w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: traced pass, %d spans\n", w.name, len(rec.tr.recorded()))
		rec.tr.summary()
	}
	res := &passResult{m: m, attempted: rec.attempted.Load(), failed: rec.failed.Load()}
	m["ok_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)
	return res, m.checkNames()
}

// runWorkload produces the result of one invocation. Untraced: one pass,
// the end-to-end metrics. Traced: an untraced pass and a traced pass over
// the same op lists on fresh datasets, the per-layer metrics of the second
// and the throughput ratio of the two.
func runWorkload(cfg *config, w *workloadDef) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res, err := runPass(cfg, w, false)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		plain := res.m["throughput_ops"]
		if res, err = runPass(cfg, w, true); err != nil {
			return nil, err
		}
		res.m["trace.overhead_ratio"] = ratio(res.m["throughput_ops"], plain)
		defs = perLayer
	}
	return &result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.m.project(defs),
	}, nil
}

func lookup(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	// Started from the root of a checkout (run.sh) or from this directory
	// (go run .): either way the outputs land in benchmark/out.
	cfg := config{persons: 1000, outDir: "out"}
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		cfg.outDir = filepath.Join("benchmark", "out")
	}
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "all", "interactive-mixed, update-wal, served-read, analytic or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the curated pools' draws and of every op list; the dataset is fixed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed section on the reference box")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced pass and prints the per-layer metrics instead")
	flag.IntVar(&repeat, "repeat", 1, "run this many fresh processes on consecutive seeds and print each metric's spread")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 || repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}

	var names []string
	if cfg.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if lookup(cfg.workload) != nil {
		names = []string{cfg.workload}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}

	if repeat > 1 {
		if err := runRepeat(&cfg, names, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "== %s seed=%d seconds=%g persons=%d gomaxprocs=%d clients<=%d ==\n",
			name, cfg.seed, cfg.seconds, cfg.persons, runtime.GOMAXPROCS(0), clients())
		res, err := runWorkload(&cfg, lookup(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// clients is the closed-loop client budget: client threads plus connections
// never exceed the processors, so the harness does not queue on the CPU it
// measures.
func clients() int {
	if runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return 2
}
