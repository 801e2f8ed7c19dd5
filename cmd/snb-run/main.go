// snb-run executes the SNB Interactive benchmark end to end: generate (or
// reload) a dataset, bulk-load the store, replay the update stream with
// dependency tracking while running the read mix, and report the
// per-query latency tables and throughput — the §5 evaluation flow.
//
// Every read-only query (Q1-Q14, S1-S7) runs on the store's frozen
// snapshot views (the lock-free hot path), and the report prints the
// per-query latency/count tables. It also breaks view acquisition into
// refresh-vs-rebuild latency and prints the store's view-maintenance
// counters and gauges (delta refreshes, inline rebuilds, era bumps,
// view-cursor drops — an overlay plus backlog that passed the compaction
// trigger; overlay size against the trigger), so what readers pay for view
// maintenance is observable from the CLI.
//
// The optional BI analyst lane (-bi) runs the eight graph-wide BI queries
// (bi.Registry) alongside the Interactive mix with their own latency
// table: each execution cuts its scans into morsels for -bi-workers
// workers (1 runs them on the client's goroutine).
//
// # Durable mode
//
// -data-dir makes the run durable: the store opens (or recovers) a data
// directory holding a segmented WAL plus checkpoints (docs/FORMATS.md).
// On a fresh directory the bulk load is written as a checkpoint at its one
// commit, the mixed run's updates append to the WAL (with a background
// checkpointer bounding the replay tail), and shutdown is clean: final
// checkpoint, WAL fsync, close. On a directory that already holds data
// the store recovers — newest valid checkpoint plus WAL tail replay — the
// recovery timings are printed, and the run serves the read-only mix over
// the recovered state (the update stream was already applied in the run
// that wrote the directory; re-applying it would double-create entities).
// -wal-sync selects the durability mode (none|flush|commit); commits go
// through the group-commit flusher, so fsync-on-commit amortises one fsync
// over every commit in a batch. See store.WALSyncMode for the exact
// guarantee of each mode.
//
// -streams sets how many update streams commit concurrently; with
// -wal-sync commit their commits share group-commit batches, and Table 9
// times each update Begin..Commit, the durability wait included.
//
// SIGINT/SIGTERM interrupt a run gracefully: read and BI lanes
// stop at their next operation boundary, started update transactions
// finish (so dependency holds release), and durable mode still runs the
// clean-shutdown path — final checkpoint, group-commit flusher drained, WAL
// synced — so everything Commit acknowledged before the signal survives
// recovery.
//
// # Serve mode
//
// -serve-addr turns snb-run into the open-loop network driver for a
// snb-serve instance: no local dataset or store is built; requests are
// issued over the wire on a Poisson schedule at -arrival-rate requests/s
// for -serve-duration (the paper's scheduled-start-time driver model),
// with retry/backoff honoring the server's RETRY_AFTER hints, and the
// report prints per-class p50/p99/p999 plus shed/timeout/retry counts.
//
// Usage:
//
//	snb-run -sf 0.05 [-streams 4] [-readclients 2] [-pertype 3] [-uniform]
//	        [-bi] [-bi-workers N] [-bi-clients N] [-bi-rounds N]
//	        [-data-dir DIR] [-wal-sync none|flush|commit]
//	        [-wal-segment-bytes N] [-checkpoint-bytes N] [-checkpoint-commits N]
//	snb-run -serve-addr HOST:PORT -arrival-rate N [-serve-duration DUR]
//	        [-serve-deadline MS] [-serve-retries N] [-serve-inflight N]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ldbcsnb/internal/bench"
	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/query"
	"ldbcsnb/internal/server/client"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/xrand"
)

// runConfig is the dataset-generation fingerprint snb-run stores next to a
// durable data directory: the recovered store only matches the read mix's
// parameter pools if the dataset is regenerated with the same scale and
// seed, so a mismatch on reopen is an operator error surfaced up front
// rather than a run full of silently empty queries.
type runConfig struct {
	Persons int    `json:"persons"`
	Seed    uint64 `json:"seed"`
}

const runConfigName = "snb-run.json"

func writeRunConfig(dir string, cfg runConfig) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, runConfigName), append(data, '\n'), 0o644)
}

// parseWALSync maps the -wal-sync flag to a store.WALSyncMode.
func parseWALSync(s string) (store.WALSyncMode, error) {
	switch s {
	case "none", "":
		return store.SyncClose, nil
	case "flush":
		return store.SyncFlush, nil
	case "commit":
		return store.SyncCommit, nil
	}
	return store.SyncClose, fmt.Errorf("invalid -wal-sync %q (want none, flush or commit)", s)
}

func checkRunConfig(dir string, cfg runConfig) {
	data, err := os.ReadFile(filepath.Join(dir, runConfigName))
	if err != nil {
		log.Printf("warning: %s missing (%v); cannot verify the data dir matches -persons/-seed", runConfigName, err)
		return
	}
	var got runConfig
	if err := json.Unmarshal(data, &got); err != nil {
		log.Fatalf("%s: %v", runConfigName, err)
	}
	if got != cfg {
		log.Fatalf("data dir %s was written with -persons %d -seed %d; this run regenerated the dataset with -persons %d -seed %d — "+
			"query parameters would not match the recovered store (rerun with the original flags, or point -data-dir elsewhere)",
			dir, got.Persons, got.Seed, cfg.Persons, cfg.Seed)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snb-run: ")

	sf := flag.Float64("sf", 0.05, "scale factor")
	personsFlag := flag.Int("persons", 0, "explicit person count (overrides -sf)")
	seed := flag.Uint64("seed", 42, "generator seed")
	streams := flag.Int("streams", 4, "update stream partitions")
	readClients := flag.Int("readclients", 2, "concurrent read clients")
	perType := flag.Int("pertype", 3, "complex query executions per type (base)")
	uniform := flag.Bool("uniform", false, "use uniform instead of curated Q5 parameters (Figure 5b ablation)")
	biLane := flag.Bool("bi", false,
		"run the BI analyst lane alongside the Interactive mix (eight graph-wide BI queries per round)")
	biWorkers := flag.Int("bi-workers", 0,
		"morsel fan-out per BI query: 0 = GOMAXPROCS, 1 = one worker on the client's goroutine")
	biClients := flag.Int("bi-clients", 1, "concurrent BI analyst clients when -bi is set")
	biRounds := flag.Int("bi-rounds", 1, "passes each BI client makes over the eight templates")
	dataDir := flag.String("data-dir", "",
		"durable mode: open or recover a data directory (segmented WAL + checkpoints); empty = in-memory run")
	walSync := flag.String("wal-sync", "none",
		"with -data-dir: WAL durability mode — 'none' (flush on close), 'flush' (flush each batch), "+
			"'commit' (fsync each group-commit batch; Commit returns only once durable)")
	segmentBytes := flag.Int64("wal-segment-bytes", 0,
		"with -data-dir: WAL segment rotation threshold in bytes (0 = default 4 MiB)")
	ckptBytes := flag.Int64("checkpoint-bytes", 0,
		"with -data-dir: background checkpoint after this many WAL bytes (0 = default 32 MiB, negative = disable)")
	ckptCommits := flag.Int64("checkpoint-commits", 0,
		"with -data-dir: background checkpoint after this many commits (0 = disabled)")
	serveAddr := flag.String("serve-addr", "",
		"serve mode: drive a snb-serve instance at HOST:PORT with the open-loop client instead of running locally")
	arrivalRate := flag.Float64("arrival-rate", 0,
		"serve mode: target Poisson arrival rate in requests/second (required with -serve-addr)")
	serveDuration := flag.Duration("serve-duration", 10*time.Second,
		"serve mode: issuing window")
	serveDeadline := flag.Uint("serve-deadline", 0,
		"serve mode: per-request deadline in ms sent on the wire (0 = server default)")
	serveRetries := flag.Int("serve-retries", 3,
		"serve mode: max retries per request after shed or transport failure")
	serveInflight := flag.Int("serve-inflight", 0,
		"serve mode: max outstanding requests; arrivals beyond it are dropped (0 = 256)")
	queryText := flag.String("query", "",
		"query mode: compile and run one declarative pattern query (docs/QUERY.md) against the "+
			"loaded dataset, print the plan and result rows, and exit; $-parameters are bound "+
			"from the curated pools using -seed")
	flag.Parse()

	if *serveAddr != "" {
		runServeMode(*serveAddr, *arrivalRate, *serveDuration, uint32(*serveDeadline),
			*serveRetries, *serveInflight, *seed)
		return
	}
	syncMode, err := parseWALSync(*walSync)
	if err != nil {
		log.Fatal(err)
	}

	persons := *personsFlag
	if persons == 0 {
		persons = datagen.PersonsForSF(*sf)
	}

	fmt.Printf("building environment: %d persons...\n", persons)
	env := bench.NewEnvData(persons, *seed)

	// Durable mode: open-or-recover; otherwise a fresh in-memory store.
	var persist *store.Persistent
	recovered := false
	if *dataDir != "" {
		opts := store.PersistOptions{
			SegmentBytes:      *segmentBytes,
			WALSync:           syncMode,
			CheckpointBytes:   *ckptBytes,
			CheckpointCommits: *ckptCommits,
		}
		p, info, err := store.Open(*dataDir, opts, nil)
		if err != nil {
			log.Fatalf("open %s: %v", *dataDir, err)
		}
		persist = p
		if info.Fresh {
			fmt.Printf("data dir %s: fresh; the bulk load becomes a checkpoint\n", *dataDir)
			if err := writeRunConfig(*dataDir, runConfig{Persons: persons, Seed: *seed}); err != nil {
				log.Fatal(err)
			}
			if err := env.LoadInto(p.Store); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("bulk load checkpointed at commit %d\n", p.CheckpointTS())
		} else {
			checkRunConfig(*dataDir, runConfig{Persons: persons, Seed: *seed})
			recovered = true
			env.Store = p.Store
			fmt.Printf("data dir %s: recovered to commit %d (checkpoint %d + %d WAL records replayed, %d skipped; %d/%d segments scanned/skipped",
				*dataDir, info.Clock, info.CheckpointTS, info.Replayed, info.Skipped,
				info.SegmentsScanned, info.SegmentsSkipped)
			if info.TornBytes > 0 {
				fmt.Printf("; %dB torn tail discarded", info.TornBytes)
			}
			fmt.Println(")")
			for _, bad := range info.BadCheckpoints {
				fmt.Printf("  skipped invalid checkpoint %s\n", bad)
			}
			fmt.Println("update stream already applied by the writing run; serving the read-only mix")
		}
	} else {
		st := store.New()
		if err := env.LoadInto(st); err != nil {
			log.Fatal(err)
		}
	}

	c := env.Bulk.Counts()
	if recovered {
		fmt.Printf("dataset: %d persons, %d messages, %d forums (bulk split; all %d updates already durable)\n",
			c.Persons, c.Messages(), c.Forums, len(env.Updates))
	} else {
		fmt.Printf("bulk-loaded %d persons, %d messages, %d forums; %d updates pending\n",
			c.Persons, c.Messages(), c.Forums, len(env.Updates))
	}

	if *queryText != "" {
		code := runQueryMode(env, *queryText, *seed, *uniform)
		if persist != nil {
			if err := persist.Close(); err != nil {
				log.Fatalf("close: %v", err)
			}
		}
		os.Exit(code)
	}

	// Graceful shutdown: SIGINT/SIGTERM cancel the run's context; the
	// driver lanes stop at their next operation boundary and control falls
	// through to the clean-shutdown path below (checkpoint, flush, close),
	// so an interrupted durable run keeps every acknowledged commit.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	updates := env.Updates
	if recovered {
		updates = nil
	}
	mixed := driver.MixedConfig{
		Ctx:            sigCtx,
		Store:          env.Store,
		Dataset:        env.Full,
		Updates:        updates,
		Streams:        *streams,
		ReadClients:    *readClients,
		ComplexPerType: *perType,
		Seed:           *seed,
		UniformParams:  *uniform,
		Persist:        persist,
	}
	if *biLane {
		mixed.BIClients = *biClients
		mixed.BIWorkers = *biWorkers
		mixed.BIRounds = *biRounds
		fmt.Printf("BI lane: %d client(s), %d round(s), workers=%d (0 = GOMAXPROCS)\n",
			*biClients, *biRounds, *biWorkers)
	}
	rep := driver.RunMixed(mixed)
	// Stop relaying signals: a second ^C during shutdown kills the process
	// the default way instead of being swallowed.
	stopSignals()
	if rep.Interrupted {
		fmt.Println("\ninterrupted by signal: lanes stopped at operation boundaries; partial results follow")
	}

	fmt.Println()
	fmt.Print(bench.Table6(rep).Render())
	fmt.Println()
	fmt.Print(bench.Table7(rep).Render())
	fmt.Println()
	fmt.Print(bench.Table9(rep).Render())
	fmt.Println()
	if *biLane {
		fmt.Print(bench.TableBI(rep).Render())
		fmt.Println()
	}
	fmt.Printf("wall time: %v   throughput: %.0f ops/s   errors: %d\n",
		rep.Wall.Round(1000000), rep.Throughput, rep.Errors)
	if rep.ViewAcquire.Count > 0 {
		fmt.Printf("view acquire: mean %v over %d acquisitions\n",
			rep.ViewAcquire.Mean(), rep.ViewAcquire.Count)
		fmt.Printf("  refresh/hit: mean %v over %d   rebuild: mean %v max %v over %d\n",
			rep.ViewRefresh.Mean(), rep.ViewRefresh.Count,
			rep.ViewRebuild.Mean(), rep.ViewRebuild.Max, rep.ViewRebuild.Count)
		fmt.Printf("  new era from another reader's rebuild: mean %v max %v over %d\n",
			rep.ViewNewEra.Mean(), rep.ViewNewEra.Max, rep.ViewNewEra.Count)
		vs := env.Store.ViewStats()
		fmt.Printf("view maintenance: %d delta refreshes, %d rebuilds, %d era bumps, %d view-cursor drops (overlay plus backlog past the trigger)\n",
			vs.Refreshes, vs.Rebuilds, vs.EraBumps, vs.Overflows)
		fmt.Printf("  overlay: %d entries (compaction trigger %d)\n", vs.OverlayEntries, vs.CompactTrigger)
	}
	fmt.Printf("memory: %s\n", bench.MemoryLine(env.Store.ComputeStats()))
	if rep.Persist != nil {
		fmt.Printf("durability: %d WAL bytes appended, %d rotations, %d checkpoints (last at commit %d), %d segments truncated, final sync %v\n",
			rep.Persist.WALBytes, rep.Persist.WALRotations, rep.Persist.Checkpoints,
			rep.Persist.LastCheckpointTS, rep.Persist.SegmentsRemoved, rep.FinalSync.Round(1000))
		if rep.Persist.Batches > 0 {
			fmt.Printf("group commit: %d batches, %d records (%.1f recs/batch), %d fsyncs\n",
				rep.Persist.Batches, rep.Persist.BatchedRecords,
				float64(rep.Persist.BatchedRecords)/float64(rep.Persist.Batches),
				rep.Persist.Fsyncs)
		}
		if rep.FinalSyncErr != nil {
			log.Printf("final WAL sync FAILED: %v (commits since the last successful sync may not be durable)", rep.FinalSyncErr)
		}
	}

	// Clean shutdown of the durable store: final checkpoint (so the next
	// open skips tail replay), then sync and close the WAL.
	if persist != nil {
		if err := persist.Err(); err != nil {
			log.Printf("background checkpoint error: %v", err)
		}
		if err := persist.Checkpoint(); err != nil {
			log.Fatalf("shutdown checkpoint: %v", err)
		}
		if err := persist.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
		fmt.Printf("clean shutdown: checkpoint at commit %d, WAL synced\n", persist.CheckpointTS())
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// runQueryMode compiles one declarative pattern query with cardinality
// hints from the current snapshot view, runs it on that view, and prints the plan, the result rows and the execution timing. Returns
// the process exit code.
func runQueryMode(env *bench.Env, text string, seed uint64, uniform bool) int {
	q, err := query.Parse(text)
	if err != nil {
		log.Printf("parse: %v", err)
		return 1
	}
	v := env.Store.CurrentView()
	plan, err := query.CompileOpts(q, query.Opts{Card: v.NumOfKind})
	if err != nil {
		log.Printf("plan: %v", err)
		return 1
	}
	fmt.Printf("\nquery: %s\nplan:\n%s\n", q, plan)

	pools := driver.PreparePools(env.Full, seed, uniform)
	params := query.StandardParams(pools, xrand.New(seed, 0x9e3779b9))
	sc := query.NewScratch()
	start := time.Now()
	res, err := query.Run(v, sc, plan, params)
	elapsed := time.Since(start)
	if err != nil {
		log.Printf("execute: %v", err)
		return 1
	}
	fmt.Print(res)
	fmt.Printf("\n%d row(s) in %v\n", len(res.Rows), elapsed.Round(time.Microsecond))
	return 0
}

// runServeMode drives a remote snb-serve instance with the open-loop
// Poisson generator and prints the per-class latency/outcome report.
func runServeMode(addr string, rate float64, duration time.Duration, deadlineMs uint32,
	retries, inflight int, seed uint64) {
	if rate <= 0 {
		log.Fatal("serve mode needs -arrival-rate > 0")
	}
	fmt.Printf("open-loop driver: %s at %.0f req/s for %v (deadline %dms, retries %d)\n",
		addr, rate, duration, deadlineMs, retries)
	rep, err := client.RunOpenLoop(client.LoadConfig{
		Client: client.Options{
			Addr:     addr,
			RetryMax: retries,
			Seed:     seed,
		},
		Rate:        rate,
		Duration:    duration,
		MaxInFlight: inflight,
		DeadlineMs:  deadlineMs,
		Seed:        seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("%-8s %8s %8s %8s %8s %8s %10s %10s %10s\n",
		"class", "issued", "ok", "shed", "timeout", "failed", "p50", "p99", "p999")
	for i := range rep.Classes {
		cs := &rep.Classes[i]
		if cs.Issued == 0 {
			continue
		}
		fmt.Printf("%-8s %8d %8d %8d %8d %8d %10v %10v %10v\n",
			cs.Name, cs.Issued, cs.OK, cs.Shed, cs.Timeout, cs.Failed+cs.Errors,
			cs.Latency.Percentile(50).Round(time.Microsecond),
			cs.Latency.Percentile(99).Round(time.Microsecond),
			cs.Latency.Percentile(99.9).Round(time.Microsecond))
	}
	fmt.Println()
	fmt.Printf("achieved %.0f req/s over %v (target %.0f); %d dropped at the generator\n",
		rep.Rate, rep.Elapsed.Round(time.Millisecond), rep.Target, rep.Dropped)
	c := rep.Client
	fmt.Printf("transport: %d retries, %d failed attempts, %d gave up, %d faults injected\n",
		c.Retries, c.Transport, c.GaveUp, c.FaultsInjected)
}
