package driver

import (
	"context"
	"sync"
	"testing"
	"time"

	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// TestRunMixedCancelDurability pins the durability watermark invariant
// across an aborted run: a mixed run whose update streams commit in
// fsync-on-commit mode is canceled mid-flight, and every commit the run
// acknowledged must survive recovery — "Commit returned ⇒ durable" does
// not weaken when the run ends by signal instead of completion. The
// streams are finite, so the cancel fires on progress (k commits past the
// bulk load), not on a timer.
func TestRunMixedCancelDurability(t *testing.T) {
	const k = 50
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
	bulkClock := p.Store.LastCommit()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for p.Store.LastCommit() < bulkClock+k {
			select {
			case <-runDone:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
		cancel()
	}()
	rep := RunMixed(MixedConfig{
		Store: p.Store, Persist: p, Dataset: full, Updates: updates,
		Streams: 2, ReadClients: 1, ComplexPerType: 1, Seed: 11,
		Ctx: ctx,
	})
	close(runDone)
	watcher.Wait()
	if !rep.Interrupted {
		t.Fatalf("run of %d updates completed before the cancel at %d commits", len(updates), k)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors during interrupted run: %d", rep.Errors)
	}

	liveClock := p.Store.LastCommit()
	liveStats := p.Store.ComputeStats()
	updated := 0
	for i := range rep.Update {
		updated += rep.Update[i].Count
	}
	if int64(updated) != liveClock-bulkClock {
		t.Fatalf("report counts %d updates, the store committed %d past the bulk load", updated, liveClock-bulkClock)
	}
	if updated >= len(updates) {
		t.Fatalf("interrupted run executed all %d updates", updated)
	}
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

// stopConnector closes stop after executing its first operation; it
// records every operation it executes.
type stopConnector struct {
	mu   sync.Mutex
	stop chan struct{}
	ran  []*schema.Update
}

func (c *stopConnector) Execute(op *schema.Update) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ran) == 0 {
		close(c.stop)
	}
	c.ran = append(c.ran, op)
	return nil
}

// TestReplayStopReleasesSiblings pins replay's stop contract: stream 0
// executes one operation and stops before creating the person stream 1
// depends on. Stream 0 must release its dependency hold so stream 1 does
// not stay parked in WaitUntil, stream 1 must not run the dependent whose
// dependency never executed, and the report counts the one executed
// operation only.
func TestReplayStopReleasesSiblings(t *testing.T) {
	streams := [][]schema.Update{
		{
			{Type: schema.UpdateAddForum, DueTime: 10},
			{Type: schema.UpdateAddPerson, DueTime: 100},
		},
		{
			{Type: schema.UpdateAddFriendship, DueTime: 200, DepTime: 100},
			{Type: schema.UpdateAddFriendship, DueTime: 300, DepTime: 100},
		},
	}
	conn := &stopConnector{stop: make(chan struct{})}
	done := make(chan Report)
	go func() {
		done <- replay(Config{Connector: conn, Streams: len(streams), Mode: ModeUnpaced}, streams, conn.stop)
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("replay never returned: a stream stayed parked in WaitUntil")
	}
	if rep.Operations != 1 || len(conn.ran) != 1 {
		t.Fatalf("report counts %d operations, connector ran %d; want 1 each", rep.Operations, len(conn.ran))
	}
	if conn.ran[0] != &streams[0][0] {
		t.Fatalf("executed %v at %d, want stream 0's first operation", conn.ran[0].Type, conn.ran[0].DueTime)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %d", rep.Errors)
	}
}
