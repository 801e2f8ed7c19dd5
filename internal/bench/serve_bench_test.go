package bench

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/server/client"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// BenchmarkServe measures the serving layer end to end: an in-process
// server on a loopback port, an open-loop Poisson client issuing the
// default class mix, b.N total arrivals. The steady variant runs well
// inside capacity with the default gates; the overload variant doubles
// the arrival rate against deliberately small interactive gates, so the
// admission queue and shedder are on the serve path. Reported metrics
// are client-observed complex-read percentiles (µs) plus the outcome
// counts across all classes; on a single-core host CPU-bound handlers
// serialize in the scheduler, so overload sheds are understated there
// (the deterministic shed contract is pinned by internal/server's wire
// tests, not here). `make bench-serve` converts the output into
// BENCH_serve.json.

// The serve benchmarks share one generated dataset but load a fresh
// store per run: Shutdown marks the served store closed.
var (
	serveOnce  sync.Once
	serveEnv   *Env
	servePools *workload.ParamPools
)

func serveFixture(b *testing.B) (*Env, *workload.ParamPools) {
	b.Helper()
	serveOnce.Do(func() {
		serveEnv = NewEnvData(200, 11)
		servePools = driver.PreparePools(serveEnv.Full, 11, false)
	})
	return serveEnv, servePools
}

func benchServe(b *testing.B, rate float64, deadlineMs uint32, retries int, faults client.FaultConfig, mut func(*server.Config)) {
	env, pools := serveFixture(b)
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		b.Fatal(err)
	}
	if err := schema.LoadParallel(st, env.Bulk, 4); err != nil {
		b.Fatal(err)
	}
	cfg := server.Config{Store: st, Pools: pools, Seed: 11}
	if mut != nil {
		mut(&cfg)
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}()

	// b.N counts arrivals: the issuing window is sized so the Poisson
	// schedule emits ~N requests at the target rate.
	duration := time.Duration(float64(b.N) / rate * float64(time.Second))
	b.ResetTimer()
	rep, err := client.RunOpenLoop(client.LoadConfig{
		Client:     client.Options{Addr: ln.Addr().String(), RetryMax: retries, Seed: 11, Faults: faults},
		Rate:       rate,
		Duration:   duration,
		DeadlineMs: deadlineMs,
		Seed:       11,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}

	var ok, shed, timeouts, failed int64
	for i := range rep.Classes {
		cs := &rep.Classes[i]
		ok += cs.OK
		shed += cs.Shed
		timeouts += cs.Timeout
		failed += cs.Failed + cs.Errors
	}
	if ok == 0 {
		b.Fatal("no request completed OK")
	}
	if failed > 0 {
		b.Fatalf("%d requests failed on a fault-free loopback", failed)
	}
	cx := &rep.Classes[0] // complex reads: the interactive latency contract
	b.ReportMetric(float64(cx.Latency.Percentile(50).Microseconds()), "p50-us")
	b.ReportMetric(float64(cx.Latency.Percentile(99).Microseconds()), "p99-us")
	b.ReportMetric(float64(cx.Latency.Percentile(99.9).Microseconds()), "p999-us")
	b.ReportMetric(rep.Rate, "req/s")
	b.ReportMetric(float64(ok), "ok")
	b.ReportMetric(float64(shed), "shed")
	b.ReportMetric(float64(timeouts), "timeouts")
	b.ReportMetric(float64(rep.Dropped), "dropped")
	b.ReportMetric(float64(rep.Client.Retries), "retries")
}

func BenchmarkServe(b *testing.B) {
	b.Run("load=steady", func(b *testing.B) {
		benchServe(b, 300, 1000, 3, client.FaultConfig{}, nil)
	})
	b.Run("load=overload", func(b *testing.B) {
		benchServe(b, 1200, 100, 1, client.FaultConfig{}, func(cfg *server.Config) {
			cfg.Interactive = server.GateConfig{Slots: 2, Queue: 4, QueueTick: 20 * time.Millisecond}
			cfg.BI = server.GateConfig{Slots: 1, Queue: 1, QueueTick: 20 * time.Millisecond}
			cfg.Write = server.GateConfig{Slots: 1, Queue: 2, QueueTick: 20 * time.Millisecond}
		})
	})
	// Fault tolerance at speed: every 31st frame is dropped mid-write and
	// every 47th replaced with garbage; retries must absorb both without a
	// single failed request.
	b.Run("load=faulty", func(b *testing.B) {
		benchServe(b, 300, 1000, 4, client.FaultConfig{DropEvery: 31, GarbageEvery: 47}, nil)
	})
}
