# Tier-1 verification is one command: `make check`.

GO ?= go

.PHONY: check fmt vet build test harness race lint bench bench-bi bench-recovery bench-mem bench-write bench-serve bench-query bench-smoke serve-smoke docs-check

check: fmt vet build test harness lint docs-check

# The whole module under the race detector. The hottest surfaces are the
# incremental view maintenance racing commits, the BI lane's morsel
# workers fanning out over shared views, and the background checkpointer —
# but every package rides along so a new concurrent path is covered the
# day it lands (wired into CI). The view-lineage tests and the BI morsel
# workers on a held view under the era's writer then run twenty times
# more: the era's shared overlay rests on atomics, and the detector only
# finds a misused one when a run happens to interleave on it. The first
# view racing the committers rides along: its build and the refreshers
# after it read what the committers install and buffer. So does the
# ACID battery's one concurrent-commit check, racing appends to a single
# adjacency row. So do the commit log's consumers: the WAL flusher reads
# the write sets the committers appended after they released commitMu,
# beside view refreshes, and a burst drops the view's cursor. So do the
# driver's cancellation tests: a stopped update stream must release its
# dependency hold, or a sibling parked in WaitUntil deadlocks, and whether
# one is parked when the stop lands depends on the schedule. So do the
# parameter-curation builders, whose per-person pass fans out over
# workers that write disjoint rows of one shared result. So do the bulk
# load's part writers, which build property rows and intern strings
# concurrently, and the streamed environment, which loads the parts of
# every chunk as one commit.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestViewLineageUnderReaders|TestHeldViewsReadTheirStamps|TestFirstViewRacesCommitters' ./internal/store
	$(GO) test -race -count=20 -run 'TestBattery|TestLostAppendRepeated' ./internal/store
	$(GO) test -race -count=20 -run 'TestBacklogPastTriggerDropsViewCursor|TestGroupCommitConcurrentStress|TestSyncCommitDurableWithoutClose' ./internal/store
	$(GO) test -race -count=20 -run TestBIParallelOnHeldViewUnderRefresh ./internal/bi
	$(GO) test -race -count=20 -run 'TestReplayStop|TestRunMixedCancel' ./internal/driver
	$(GO) test -race -count=10 -run 'TestPCTables|TestPreparePoolsPinned' ./internal/params ./internal/driver
	$(GO) test -race -count=10 -run 'TestLoadParallelDeterministic|TestStreamedEnvMatchesNewEnv' ./internal/schema ./internal/bench
	$(GO) test -race ./internal/bench/ -run xxx -bench 'BenchmarkWrite/sync=commit/writers=2$$' -benchtime 1x

# Static invariant enforcement (docs/ANALYZERS.md): snblint runs the
# internal/lint analyzer suite (view aliasing, lock guards,
# publish-then-freeze, determinism, durability errors) over the whole
# module, and allocbound gates //snb:noalloc functions against the
# compiler's escape analysis.
lint:
	$(GO) run ./cmd/snblint ./...
	$(GO) run ./cmd/allocbound

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Link-and-anchor check over the prose docs (README + docs/*.md) so a
# renamed file or heading fails CI instead of rotting silently.
docs-check:
	$(GO) run ./cmd/docscheck README.md docs/*.md

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a module of its own (it replaces ldbcsnb by ../), so the
# ./... patterns above never see it: vet and test it from inside, or a
# signature change in internal/ that breaks the harness shows up only when
# the benchmark is next run.
harness:
	cd benchmark && $(GO) vet . && $(GO) test .

# View-vs-txn read-path comparison over every Interactive query
# (allocation counts matter: the view path's adjacency iteration must
# report 0 allocs/op), plus the view-maintenance split: BenchmarkViewRefresh
# (delta refresh after 1 and 16 commits and after a 4096-commit burst)
# against BenchmarkViewRebuild (full recompaction). The run emits
# BENCH_interactive.json — ns/op and allocs/op per query per read path and
# per maintenance case — so the perf trajectory is tracked across PRs.
# Two steps (not a pipeline) so a benchmark failure fails the target
# instead of being masked by the parser's exit status. The temp file lives
# outside the working tree so a failed run leaves no untracked litter.
BENCH_TMP := $(or $(TMPDIR),/tmp)/ldbcsnb-bench.out
bench:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkView' -benchmem > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_interactive.json < $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# BI serial-vs-parallel sweep: every BI query on the txn path and on the
# view at 1, 2 and 4 workers (one body each), emitted as BENCH_bi.json.
# Parallel ratios are only meaningful on a host with at least as many
# cores as workers.
bench-bi:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkBISerialVsParallel' -benchmem > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_bi.json \
		-note "BI1-BI8 ns/op per execution path (txn vs serial view vs morsel-parallel par2/par4); parallel speedup tracks the host core count — parN on fewer than N cores measures scheduling overhead, not speedup; regenerate with \`make bench-bi\`" \
		< $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# Recovery-path comparison: restart the 250-person environment from the
# newest checkpoint plus the WAL tail vs full replay of the whole log from
# the first commit, emitted as BENCH_recovery.json. The acceptance bar for
# the persistence subsystem is checkpoint+tail >= 3x faster at this scale
# (the lean replay path sped up full replay itself ~2x, narrowing the
# ratio).
bench-recovery:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkRecovery' -benchtime 10x -benchmem > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_recovery.json \
		-note "restart latency at 250 persons: newest checkpoint + WAL tail replay (last ~2% of commits) vs full WAL replay from the first commit, each record applied as it is decoded; the 'commits' metric is the recovered commit clock (identical on both paths by construction); regenerate with \`make bench-recovery\`" \
		< $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# Memory-footprint sweep over the compact frozen representation: bytes per
# node / per adjacency entry of the snapshot view (delta+varint CSR, dense
# property columns, interned strings) against the uncompressed baseline,
# plus the same two numbers for the mutable MVCC side, at 250 / 1000 / 2500
# persons through the streamed generate+load pipeline.
# ns/op doubles as end-to-end load latency at each scale. Emits
# BENCH_memory.json; the report stamps cpus/gomaxprocs/cpu model so
# cross-machine numbers are never compared blind.
bench-mem:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkMemory' -benchtime 1x -timeout 30m > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_memory.json \
		-note "resident footprint of the frozen snapshot view at 250/1000/2500 persons (streamed load): viewbytes/node, adjbytes/edge vs rawadjbytes/edge (16-byte-Edge baseline; adjcompression is their ratio, acceptance bar >= 2.5x at 250p), intern table bytes, the mutable MVCC side's mutbytes/node (before adjacency lists) and mutbytes/entry (24-byte entries plus append slack), process heap with the store live; ns/op is the full generate+split+load+view-build latency; regenerate with \`make bench-mem\`" \
		< $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# Durable commit throughput through the group-commit pipeline: 1/2/4/8
# concurrent writers x WAL sync mode (none/flush/commit), emitted as
# BENCH_write.json. The fsyncs/commit metric is the batcher's amortisation;
# the acceptance bar (< 0.3 at sync=commit/8 writers) assumes a multi-core
# host — single-core runs record the standing caveat.
bench-write:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkWrite' -benchtime 500x > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_write.json \
		-note "durable commit throughput: N concurrent writers of minimal insert transactions per WAL sync mode; commits/s is throughput, fsyncs/commit the group-commit amortisation (acceptance bar < 0.3 at sync=commit/writers=8 on a multi-core host; single-core containers schedule writers and flushers on one CPU, so batching and the bar are understated there), recs/batch the mean batch size; regenerate with \`make bench-write\`" \
		< $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# The serving layer end to end: an in-process server and an open-loop
# Poisson client at a steady rate, at 2x rate against small gates
# (overload), and through deliberate frame drop/garbage faults, emitted
# as BENCH_serve.json. Percentiles are client-observed complex-read
# latency; shed/timeout/retry counts record the degradation behavior.
bench-serve:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkServe' -benchtime 2000x > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_serve.json \
		-note "serving layer end to end: open-loop Poisson client against an in-process server, ~2000 arrivals per variant; steady runs inside capacity with default gates, overload doubles the rate against small admission gates (100ms deadlines), faulty drops every 31st frame mid-write and garbles every 47th; p50/p99/p999-us are client-observed complex-read latencies, ok/shed/timeouts/dropped/retries the outcome counts (single-core hosts serialize handlers in the scheduler, so overload sheds are understated there — the shed contract is pinned by internal/server wire tests); regenerate with \`make bench-serve\`" \
		< $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# The serving layer's leak-and-fault gate under the race detector: an
# open-loop run through drop/garbage/stall faults plus a clean drain,
# asserting the goroutine count returns to baseline (wired into CI).
serve-smoke:
	$(GO) test -race ./internal/server/... -run 'TestServeSmokeGoroutineLeak' -count=1

# Declarative-vs-hand-written comparison for the pattern-query layer
# (docs/QUERY.md): registry specs Q1/Q2/Q8 run through the generic
# plan interpreter against the specialised workload implementations they
# mirror, both on the warm snapshot-view path, emitted as
# BENCH_query.json. The acceptance bar is decl <= 2x hand per query;
# compute the ratio within one run — the absolute numbers drift with the
# host.
bench-query:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkQueryDeclVsHand' -benchtime 500ms -benchmem > $(BENCH_TMP)
	$(GO) run ./cmd/benchjson -out BENCH_query.json \
		-note "declarative pattern-query layer vs the hand-written Q1/Q2/Q8 it mirrors, both on the warm snapshot-view path; the bar is decl <= 2x hand per query within one run (Q1 decl is faster because the hand path also computes org enrichment the declarative form omits); regenerate with \`make bench-query\`" \
		< $(BENCH_TMP)
	@rm -f $(BENCH_TMP)

# One short iteration of every query benchmark on every path (Interactive
# txn/view plus the BI serial/parallel sweep, the recovery comparison,
# the memory-footprint sweep at its first two scales and the
# declarative-vs-hand query-layer comparison): dispatch-layer
# regressions (a query losing a path, a signature drift) fail fast here
# without paying for a full measurement run. SNB_SMOKE_FULL additionally
# runs the 1000-person recovered-store workload-equivalence sweep, proving
# the compact checkpoint format at a scale where the dictionary and varint
# sections carry real weight.
bench-smoke:
	$(GO) test ./internal/bench/ -run xxx -bench 'BenchmarkViewVsTxn|BenchmarkBISerialVsParallel|BenchmarkRecovery|BenchmarkMemory/sf=(250|1000)p|BenchmarkWrite/sync=commit/writers=2$$|BenchmarkQueryDeclVsHand' -benchtime 1x -benchmem
	SNB_SMOKE_FULL=1 $(GO) test ./internal/bench/ -run 'TestRecoveredStoreServesWorkload' -count=1
