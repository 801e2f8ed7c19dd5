package driver

import (
	"sync"
	"testing"
	"time"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

func TestLDSBasics(t *testing.T) {
	l := NewLDS()
	if l.TLI() != 0 || l.TLC() != 0 {
		t.Fatal("fresh LDS watermarks")
	}
	l.Initiate(100)
	if l.TLI() != 100 {
		t.Fatalf("TLI = %d", l.TLI())
	}
	if l.TLC() != 0 {
		t.Fatal("TLC advanced before completion")
	}
	l.Complete(100)
	// TLC cannot pass TLI until the stream proves it moved on.
	l.Progress(150)
	if l.TLC() < 100 {
		t.Fatalf("TLC = %d after progress", l.TLC())
	}
	if l.TLI() < 150 {
		t.Fatalf("TLI = %d after progress", l.TLI())
	}
}

func TestLDSMonotonic(t *testing.T) {
	l := NewLDS()
	l.Initiate(10)
	l.Initiate(20)
	l.Complete(10)
	tli1 := l.TLI()
	if tli1 != 20 {
		t.Fatalf("TLI should move to pending 20, got %d", tli1)
	}
	if l.TLC() != 10 {
		t.Fatalf("TLC should fold 10, got %d", l.TLC())
	}
	l.Complete(20)
	l.Progress(30)
	if l.TLC() != 20 && l.TLC() != 30 {
		t.Fatalf("TLC = %d", l.TLC())
	}
	// Watermarks never regress.
	l.Progress(5)
	if l.TLI() < 20 || l.TLC() < 20 {
		t.Fatal("watermarks regressed")
	}
}

func TestGDSAggregation(t *testing.T) {
	g := NewGDS(2)
	g.Stream(0).Initiate(100)
	g.Stream(1).Progress(500)
	g.Refresh()
	if g.TGI() != 100 {
		t.Fatalf("TGI = %d", g.TGI())
	}
	if g.TGC() >= 100 {
		t.Fatalf("TGC = %d with op 100 pending", g.TGC())
	}
	g.Stream(0).Complete(100)
	g.Stream(0).Progress(200)
	g.Refresh()
	if g.TGC() < 100 {
		t.Fatalf("TGC = %d after completion", g.TGC())
	}
}

func TestGDSWaitUnblocks(t *testing.T) {
	g := NewGDS(1)
	done := make(chan struct{})
	go func() {
		g.WaitUntil(50)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("wait returned early")
	default:
	}
	g.Stream(0).Initiate(50)
	g.Stream(0).Complete(50)
	g.Stream(0).Progress(60)
	g.Refresh()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("wait never unblocked")
	}
}

func TestGDSSetFloor(t *testing.T) {
	g := NewGDS(3)
	g.SetFloor(1000)
	if g.TGC() < 1000 {
		t.Fatalf("TGC = %d after floor", g.TGC())
	}
	done := make(chan struct{})
	go func() {
		g.WaitUntil(999)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("floor did not satisfy old dependency")
	}
}

// genUpdates produces a real update stream from the generator.
func genUpdates(t *testing.T, persons int) (*schema.Dataset, *schema.Dataset, []schema.Update) {
	t.Helper()
	out := datagen.Generate(datagen.Config{Seed: 21, Persons: persons, Workers: 2})
	bulk, updates := datagen.Split(out.Data, datagen.UpdateCut)
	if len(updates) == 0 {
		t.Fatal("no updates generated")
	}
	return out.Data, bulk, updates
}

func TestPartitionInvariants(t *testing.T) {
	_, _, updates := genUpdates(t, 200)
	for _, n := range []int{1, 2, 4, 8} {
		streams := Partition(updates, n)
		if len(streams) != n {
			t.Fatalf("stream count %d", len(streams))
		}
		total := 0
		for _, s := range streams {
			total += len(s)
		}
		if total != len(updates) {
			t.Fatalf("partition lost ops: %d of %d", total, len(updates))
		}
		if v := ValidateStreams(streams); v != 0 {
			t.Fatalf("%d stream invariant violations with %d partitions", v, n)
		}
	}
}

// countingConnector verifies dependency ordering: every dependent must
// execute after the person op it depends on.
type countingConnector struct {
	mu        sync.Mutex
	executed  map[int64]bool // due times of executed person ops
	violation int
	ops       int
	firstDue  int64
}

func (c *countingConnector) Execute(op *schema.Update) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if op.Type == schema.UpdateAddPerson {
		c.executed[op.DueTime] = true
	} else if op.DepTime > 0 && op.DepTime >= c.firstDue {
		// The dependency is itself part of the update stream: it must have
		// executed already.
		if !c.executed[op.DepTime] {
			c.violation++
		}
	}
	return nil
}

func (c *countingConnector) setFirstDue(d int64) { c.firstDue = d }

func TestRunRespectsDependencies(t *testing.T) {
	_, _, updates := genUpdates(t, 300)
	for _, mode := range []Mode{ModeUnpaced, ModeWindowed} {
		for _, n := range []int{1, 4} {
			conn := &countingConnector{executed: map[int64]bool{}}
			conn.setFirstDue(updates[0].DueTime)
			streams := Partition(updates, n)
			rep := Run(Config{Connector: conn, Streams: n, Mode: mode}, streams)
			if rep.Operations != len(updates) {
				t.Fatalf("mode %v n %d: executed %d of %d", mode, n, rep.Operations, len(updates))
			}
			if conn.ops != len(updates) {
				t.Fatalf("connector saw %d ops", conn.ops)
			}
			if conn.violation != 0 {
				t.Fatalf("mode %v n %d: %d dependency violations", mode, n, conn.violation)
			}
			if rep.Errors != 0 {
				t.Fatalf("errors: %d", rep.Errors)
			}
		}
	}
}

func TestRunAgainstStore(t *testing.T) {
	full, bulk, updates := genUpdates(t, 200)
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.Load(st, bulk); err != nil {
		t.Fatal(err)
	}
	conn := &StoreConnector{Store: st}
	streams := Partition(updates, 4)
	rep := Run(Config{Connector: conn, Streams: 4, Mode: ModeUnpaced}, streams)
	if rep.Errors != 0 {
		t.Fatalf("store errors: %d", rep.Errors)
	}
	st.View(func(tx *store.Txn) {
		if got := len(tx.NodesOfKind(1)); got != len(full.Persons) { // ids.KindPerson
			t.Fatalf("persons after driver replay: %d want %d", got, len(full.Persons))
		}
	})
}

func TestPacedModeSlowsDown(t *testing.T) {
	_, _, updates := genUpdates(t, 200)
	// Take a small slice spanning some simulation time.
	slice := updates
	if len(slice) > 50 {
		slice = slice[:50]
	}
	span := slice[len(slice)-1].DueTime - slice[0].DueTime
	if span <= 0 {
		t.Skip("degenerate slice")
	}
	// Acceleration so the replay takes ~50ms.
	accel := float64(span) / 50.0
	conn := &SleepConnector{Sleep: 0}
	start := time.Now()
	Run(Config{Connector: conn, Streams: 2, Mode: ModePaced, Acceleration: accel},
		Partition(slice, 2))
	elapsed := time.Since(start)
	if elapsed < 30*time.Millisecond {
		t.Fatalf("paced run finished too fast: %v", elapsed)
	}
}

func TestSleepConnectorScalability(t *testing.T) {
	// Miniature Table 5: with a 1ms sleeping connector, throughput must
	// grow near-linearly from 1 to 4 partitions.
	_, _, updates := genUpdates(t, 300)
	if len(updates) > 600 {
		updates = updates[:600]
	}
	run := func(n int) float64 {
		conn := &SleepConnector{Sleep: time.Millisecond}
		rep := Run(Config{Connector: conn, Streams: n, Mode: ModeUnpaced}, Partition(updates, n))
		return rep.OpsPerSec
	}
	t1 := run(1)
	t4 := run(4)
	if t4 < 2.2*t1 {
		t.Fatalf("poor driver scaling: 1p=%.0f ops/s, 4p=%.0f ops/s", t1, t4)
	}
	// 1 partition with 1ms sleep ≈ 1000 ops/s ceiling.
	if t1 > 1100 {
		t.Fatalf("single partition exceeded sleep ceiling: %.0f", t1)
	}
}

func TestLatencyStats(t *testing.T) {
	var s LatencyStats
	if s.Mean() != 0 || s.Percentile(99) != 0 || s.Stddev() != 0 {
		t.Fatal("empty stats")
	}
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if s.Count != 100 {
		t.Fatal("count")
	}
	if m := s.Mean(); m < 50*time.Millisecond || m > 51*time.Millisecond {
		t.Fatalf("mean %v", m)
	}
	if p := s.Percentile(99); p != 99*time.Millisecond {
		t.Fatalf("p99 %v", p)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max %v", s.Max)
	}
	if s.Stddev() == 0 {
		t.Fatal("stddev")
	}
}

func TestRunMixedProducesAllTables(t *testing.T) {
	full, bulk, updates := genUpdates(t, 200)
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.Load(st, bulk); err != nil {
		t.Fatal(err)
	}
	if len(updates) > 2000 {
		updates = updates[:2000]
	}
	rep := RunMixed(MixedConfig{
		Store: st, Dataset: full, Updates: updates,
		Streams: 2, ReadClients: 2, ComplexPerType: 2, Seed: 11,
	})
	if rep.Errors != 0 {
		t.Fatalf("errors: %d", rep.Errors)
	}
	for q := 0; q < 14; q++ {
		if rep.Complex[q].Count == 0 {
			t.Fatalf("Q%d never executed", q+1)
		}
	}
	shortTotal := 0
	for i := range rep.Short {
		shortTotal += rep.Short[i].Count
	}
	if shortTotal == 0 {
		t.Fatal("no short reads executed")
	}
	updTotal := 0
	for i := range rep.Update {
		updTotal += rep.Update[i].Count
	}
	if updTotal != len(updates) {
		t.Fatalf("update latencies: %d of %d", updTotal, len(updates))
	}
	if rep.Throughput <= 0 {
		t.Fatal("throughput")
	}
	// View-acquisition accounting: two acquisitions per read iteration
	// (complex query + short-read walk), each classified as refresh-or-hit
	// vs full rebuild; the first acquisition of the run pays the build.
	complexTotal := 0
	for q := range rep.Complex {
		complexTotal += rep.Complex[q].Count
	}
	if rep.ViewAcquire.Count != 2*complexTotal {
		t.Fatalf("view acquisitions: %d, want %d (2 per iteration)", rep.ViewAcquire.Count, 2*complexTotal)
	}
	if rep.ViewRefresh.Count+rep.ViewNewEra.Count+rep.ViewRebuild.Count != rep.ViewAcquire.Count {
		t.Fatalf("acquire split %d+%d+%d does not cover %d",
			rep.ViewRefresh.Count, rep.ViewNewEra.Count, rep.ViewRebuild.Count, rep.ViewAcquire.Count)
	}
	if rep.ViewRebuild.Count < 1 {
		t.Fatal("no acquisition paid the initial view build")
	}
	// The complexity ordering the paper's Table 6/7 shapes rely on: the
	// cheapest short read is much cheaper than the heaviest complex query.
	var maxComplex, minShort time.Duration
	for i := range rep.Complex {
		if m := rep.Complex[i].Mean(); m > maxComplex {
			maxComplex = m
		}
	}
	minShort = time.Hour
	for i := range rep.Short {
		if rep.Short[i].Count > 0 {
			if m := rep.Short[i].Mean(); m < minShort {
				minShort = m
			}
		}
	}
	if maxComplex < minShort {
		t.Fatalf("complex reads (%v) should dominate short reads (%v)", maxComplex, minShort)
	}
}

func TestGDSHierarchy(t *testing.T) {
	// Two leaf services, each over two streams, composed under a parent:
	// the parent's TGC must advance only when every grandchild releases.
	left := NewGDS(2)
	right := NewGDS(2)
	parent := NewGDSOver(left, right)

	left.Stream(0).SetSchedule([]int64{100})
	left.Stream(1).SetSchedule(nil)
	right.Stream(0).SetSchedule([]int64{200})
	right.Stream(1).SetSchedule(nil)
	left.Refresh()
	right.Refresh()
	parent.Refresh()

	if got := parent.TGC(); got != 99 {
		t.Fatalf("parent TGC = %d, want 99 (gated by left's person at 100)", got)
	}

	left.Stream(0).Initiate(100)
	left.Stream(0).Complete(100)
	left.Refresh()
	parent.Refresh()
	if got := parent.TGC(); got != 199 {
		t.Fatalf("parent TGC = %d, want 199 (now gated by right)", got)
	}

	right.Stream(0).Initiate(200)
	right.Stream(0).Complete(200)
	right.Refresh()
	parent.Refresh()
	done := make(chan struct{})
	go func() {
		parent.WaitUntil(200)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parent never released after both children drained")
	}
}

func TestWindowedWaitBetweenDependencies(t *testing.T) {
	// Regression for the windowed-mode hang: a wait target that falls
	// between two dependency due times must resolve once all earlier
	// dependencies completed, even though no dependency exists at the
	// target itself.
	g := NewGDS(1)
	g.Stream(0).SetSchedule([]int64{100, 900})
	g.Refresh()
	g.Stream(0).Initiate(100)
	g.Stream(0).Complete(100)
	g.Refresh()
	done := make(chan struct{})
	go func() {
		g.WaitUntil(500) // between the two dependencies
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("wait between dependencies never resolved")
	}
}

// TestRunMixedBILane runs the BI analyst lane concurrently with updates
// and Interactive readers: every BI template must execute and record into
// the lane's own latency bucket, morsel-parallel on frozen views. Under
// `make race` this is the fan-out-vs-commit race surface.
func TestRunMixedBILane(t *testing.T) {
	full, bulk, updates := genUpdates(t, 200)
	if len(updates) > 500 {
		updates = updates[:500]
	}
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.Load(st, bulk); err != nil {
		t.Fatal(err)
	}
	rep := RunMixed(MixedConfig{
		Store: st, Dataset: full, Updates: updates,
		Streams: 2, ReadClients: 1, ComplexPerType: 1, Seed: 5,
		BIClients: 2, BIWorkers: 2, BIRounds: 2,
	})
	if rep.Errors != 0 {
		t.Fatalf("errors: %d", rep.Errors)
	}
	for q := range rep.BI {
		if got, want := rep.BI[q].Count, 2*2; got != want {
			t.Fatalf("BI%d executed %d times, want %d", q+1, got, want)
		}
	}
}
