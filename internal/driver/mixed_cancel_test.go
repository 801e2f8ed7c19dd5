package driver

import (
	"context"
	"testing"
	"time"

	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// TestRunMixedWriteLaneCancelDurability pins the durability watermark
// invariant across an aborted run: a mixed run with a busy write lane in
// fsync-on-commit mode is canceled mid-flight, and every commit the run
// acknowledged must survive recovery — "Commit returned ⇒ durable" does
// not weaken when the run ends by signal instead of completion.
func TestRunMixedWriteLaneCancelDurability(t *testing.T) {
	full, bulk, updates := genUpdates(t, 150)
	dir := t.TempDir()
	opts := store.PersistOptions{CheckpointBytes: -1, WALSync: store.SyncCommit}
	p, _, err := store.Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.LoadDimensions(p.Store); err != nil {
		t.Fatal(err)
	}
	if err := schema.Load(p.Store, bulk); err != nil {
		t.Fatal(err)
	}

	// The write lane alone would run for minutes; the cancel arrives while
	// it is mid-stream, so the run ends at operation boundaries.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(250 * time.Millisecond)
		cancel()
	}()
	rep := RunMixed(MixedConfig{
		Store: p.Store, Persist: p, Dataset: full, Updates: updates,
		Streams: 2, ReadClients: 1, ComplexPerType: 1, Seed: 11,
		WriteClients: 2, WriteOps: 1 << 20,
		Ctx: ctx,
	})
	if !rep.Interrupted {
		t.Fatal("run completed before the cancel; raise WriteOps")
	}
	if rep.Errors != 0 {
		t.Fatalf("errors during interrupted run: %d", rep.Errors)
	}
	if rep.Commit.Count == 0 {
		t.Fatal("write lane never committed")
	}

	liveClock := p.Store.LastCommit()
	liveStats := p.Store.ComputeStats()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, _, err := store.Open(dir, opts, nil)
	if err != nil {
		t.Fatalf("recovery after aborted run: %v", err)
	}
	defer p2.Close() //snb:errok read-only reopen; the assertions above are the contract
	if got := p2.Store.LastCommit(); got != liveClock {
		t.Fatalf("recovered clock %d, live clock at abort %d", got, liveClock)
	}
	recStats := p2.Store.ComputeStats()
	if recStats.Nodes != liveStats.Nodes || recStats.Edges != liveStats.Edges {
		t.Fatalf("recovered state diverged: nodes %d/%d, edges %d/%d",
			recStats.Nodes, liveStats.Nodes, recStats.Edges, liveStats.Edges)
	}
}

// TestRunMixedCanceledBeforeStart pins the throughput accounting: a run
// whose context is done before it starts executes nothing, so it reports no
// throughput, not the length of the update stream it abandoned.
func TestRunMixedCanceledBeforeStart(t *testing.T) {
	full, bulk, updates := genUpdates(t, 100)
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.Load(st, bulk); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := RunMixed(MixedConfig{
		Store: st, Dataset: full, Updates: updates,
		Streams: 2, ReadClients: 1, ComplexPerType: 1, Seed: 11,
		Ctx: ctx,
	})
	if !rep.Interrupted {
		t.Fatal("pre-canceled run not reported as interrupted")
	}
	if rep.Throughput != 0 {
		t.Fatalf("throughput %.1f ops/s for a run that executed nothing (%d updates abandoned)", rep.Throughput, len(updates))
	}
}
