// snb-serve puts the store behind the fault-tolerant TCP serving layer
// (internal/server): generate (or recover) a dataset, bulk-load the store,
// curate the parameter pools, and serve the length-prefixed binary
// protocol until SIGINT/SIGTERM — at which point the server drains:
// accepting stops, queued and new requests are answered RETRY_AFTER,
// in-flight requests finish (bounded by -drain-timeout), and the WAL is
// drained and fsynced so every acknowledged write is durable before the
// process exits. A background checkpoint that failed while serving is
// reported after the drain and fails the exit status.
//
// Requests name a query class and number; the server binds concrete
// parameters itself from the same curated pools the in-process driver
// uses, dispatches through workload.Complex / bi.Registry onto the
// lock-free snapshot-view path, and enforces per-class admission control
// (bounded slots + a wait queue capped at one queue tick), per-request
// deadlines with cooperative mid-query cancellation, and BI-first overload
// shedding. docs/FORMATS.md specifies the wire format; docs/ARCHITECTURE.md
// the admission/shedding data flow.
//
// Drive it with the open-loop client: snb-run -serve-addr HOST:PORT
// -arrival-rate N (the paper's scheduled-start-time driver model), or
// `make bench-serve` for the recorded overload sweep.
//
// Usage:
//
//	snb-serve -addr :7544 -sf 0.05 [-seed 42] [-data-dir DIR] [-wal-sync none|flush|commit]
//	          [-interactive-slots N] [-interactive-queue N] [-queue-tick MS]
//	          [-bi-slots N] [-write-slots N] [-default-deadline MS]
//	          [-read-timeout DUR] [-max-conns N] [-drain-timeout DUR]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ldbcsnb/internal/bench"
	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/store"
)

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

func main() {
	log.SetFlags(0)
	log.SetPrefix("snb-serve: ")

	addr := flag.String("addr", ":7544", "listen address")
	sf := flag.Float64("sf", 0.05, "scale factor")
	personsFlag := flag.Int("persons", 0, "explicit person count (overrides -sf)")
	seed := flag.Uint64("seed", 42, "generator seed (also the parameter-binding seed)")
	dataDir := flag.String("data-dir", "",
		"durable mode: open or recover a data directory; empty = in-memory")
	walSync := flag.String("wal-sync", "none",
		"with -data-dir: WAL durability mode — none|flush|commit")
	iaSlots := flag.Int("interactive-slots", 4, "interactive class: concurrent execution slots")
	iaQueue := flag.Int("interactive-queue", 8, "interactive class: admission queue capacity")
	queueTick := flag.Duration("queue-tick", 20*time.Millisecond,
		"admission queue tick: max time a request may queue before being shed")
	biSlots := flag.Int("bi-slots", 1, "BI class: concurrent execution slots")
	writeSlots := flag.Int("write-slots", 2, "write class: concurrent execution slots")
	defaultDeadline := flag.Duration("default-deadline", 100*time.Millisecond,
		"deadline applied to requests that carry none")
	readTimeout := flag.Duration("read-timeout", 2*time.Second,
		"whole-frame read deadline once a frame's first byte arrived (slow-loris guard)")
	maxConns := flag.Int("max-conns", 1024, "max concurrent connections")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"graceful-shutdown budget for in-flight requests")
	flag.Parse()

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

	var persist *store.Persistent
	if *dataDir != "" {
		opts := store.PersistOptions{WALSync: syncMode}
		p, info, err := store.Open(*dataDir, opts, nil)
		if err != nil {
			log.Fatalf("open %s: %v", *dataDir, err)
		}
		persist = p
		if info.Fresh {
			if err := env.LoadInto(p.Store); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("data dir %s: fresh; bulk load checkpointed at commit %d\n", *dataDir, p.CheckpointTS())
		} else {
			env.Store = p.Store
			fmt.Printf("data dir %s: recovered to commit %d\n", *dataDir, info.Clock)
		}
	} else {
		st := store.New()
		if err := env.LoadInto(st); err != nil {
			log.Fatal(err)
		}
	}

	pools := driver.PreparePools(env.Full, *seed, false)
	srv := server.New(server.Config{
		Store:           env.Store,
		Persist:         persist,
		Pools:           pools,
		Seed:            *seed,
		Interactive:     server.GateConfig{Slots: *iaSlots, Queue: *iaQueue, QueueTick: *queueTick},
		BI:              server.GateConfig{Slots: *biSlots, QueueTick: *queueTick},
		Write:           server.GateConfig{Slots: *writeSlots, QueueTick: *queueTick},
		DefaultDeadline: *defaultDeadline,
		ReadTimeout:     *readTimeout,
		MaxConns:        *maxConns,
	})

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	// Give the listener a beat to bind so the banner prints the truth.
	time.Sleep(50 * time.Millisecond)
	if a := srv.Addr(); a != nil {
		fmt.Printf("serving on %s (interactive %d+%d, bi %d, write %d, tick %v)\n",
			a, *iaSlots, *iaQueue, *biSlots, *writeSlots, *queueTick)
	}

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	case <-sigCtx.Done():
	}

	fmt.Println("signal received; draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	st := srv.Stats()
	fmt.Printf("drained: %d conns accepted (%d rejected), %d requests served — %d shed, %d timed out, %d errored, %d bad frames\n",
		st.Accepted, st.Rejected, st.Served, st.Shed, st.TimedOut, st.Errored, st.BadFrames)
	if persist != nil {
		// Shutdown drained and synced the WAL either way; a failed
		// checkpoint means the log was not truncated and the next open
		// replays all of it.
		if err := persist.Err(); err != nil {
			log.Fatalf("background checkpoint failed: %v (WAL synced; not truncated)", err)
		}
		fmt.Println("clean shutdown: WAL drained and synced")
		return
	}
	fmt.Println("clean shutdown")
}
