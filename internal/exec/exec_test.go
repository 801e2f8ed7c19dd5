package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestScanCoversExactlyOnce fans a range out to many workers with a small
// morsel size and checks every index is visited exactly once, by a worker
// whose index is inside the configured fan-out.
func TestScanCoversExactlyOnce(t *testing.T) {
	const n = 10_000
	cfg := Config{Workers: 8, MorselSize: 64}
	visits := make([]int32, n)
	var badWorker atomic.Int32
	cfg.Scan(n, func(worker, lo, hi int) {
		if worker < 0 || worker >= cfg.NumWorkers() {
			badWorker.Store(int32(worker) + 1)
		}
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad morsel [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	if w := badWorker.Load(); w != 0 {
		t.Fatalf("worker index %d out of range", w-1)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestScanMorselBounds checks that no claimed morsel exceeds the
// configured size and that partial tail morsels are clipped to n.
func TestScanMorselBounds(t *testing.T) {
	cfg := Config{Workers: 4, MorselSize: 100}
	var covered atomic.Int64
	cfg.Scan(1050, func(worker, lo, hi int) {
		if hi-lo > 100 {
			t.Errorf("morsel [%d,%d) exceeds size 100", lo, hi)
		}
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != 1050 {
		t.Fatalf("covered %d of 1050", covered.Load())
	}
}

// TestScanSerialInline pins the serial shortcuts: Workers=1 and
// single-morsel ranges run as exactly one inline body call.
func TestScanSerialInline(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 1, MorselSize: 10},
		{Workers: 8, MorselSize: 1024}, // n below one morsel
	} {
		calls := 0
		cfg.Scan(500, func(worker, lo, hi int) {
			calls++
			if worker != 0 || lo != 0 || hi != 500 {
				t.Fatalf("inline call got (%d, %d, %d)", worker, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("%+v: %d calls, want 1 inline", cfg, calls)
		}
	}
}

// TestScanEmpty checks n<=0 performs no calls.
func TestScanEmpty(t *testing.T) {
	cfg := Config{Workers: 4}
	cfg.Scan(0, func(worker, lo, hi int) { t.Fatal("body called for empty range") })
	cfg.Scan(-3, func(worker, lo, hi int) { t.Fatal("body called for negative range") })
}

// TestScanMorselSizeOne covers the one-task-per-claim fan-out BI7's reach
// traversals use: every task runs exactly once, alone in its morsel.
func TestScanMorselSizeOne(t *testing.T) {
	const n = 137
	cfg := Config{Workers: 5, MorselSize: 1}
	visits := make([]int32, n)
	cfg.Scan(n, func(worker, lo, hi int) {
		if worker < 0 || worker >= 5 {
			t.Errorf("worker %d out of range", worker)
		}
		if hi != lo+1 {
			t.Errorf("morsel [%d,%d) holds more than one task", lo, hi)
		}
		atomic.AddInt32(&visits[lo], 1)
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("task %d ran %d times", i, v)
		}
	}
}

// TestNumWorkersDefault pins the zero-value fan-out to GOMAXPROCS and the
// morsel default.
func TestNumWorkersDefault(t *testing.T) {
	var cfg Config
	if got, want := cfg.NumWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("NumWorkers = %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Config{Workers: -2}).NumWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative Workers resolved to %d", got)
	}
	if cfg.morselSize() != DefaultMorselSize {
		t.Fatalf("morselSize = %d", cfg.morselSize())
	}
}

// TestScanWorkerPartials exercises the intended aggregation pattern:
// per-worker partial sums merged after the barrier equal the serial sum.
func TestScanWorkerPartials(t *testing.T) {
	const n = 4096
	cfg := Config{Workers: 3, MorselSize: 128}
	parts := make([]int64, cfg.NumWorkers())
	cfg.Scan(n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			parts[worker] += int64(i)
		}
	})
	var total int64
	for _, p := range parts {
		total += p
	}
	if want := int64(n) * (n - 1) / 2; total != want {
		t.Fatalf("merged partials %d, want %d", total, want)
	}
}
