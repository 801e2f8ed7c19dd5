package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// Workload-level recovery equivalence: a store recovered from disk
// (checkpoint + WAL tail) must answer the full Interactive and BI query
// surface identically to the live store it mirrors — frozen views,
// morsel-parallel BI execution and MVCC transactions included. The
// store-level property (every read primitive, every epoch) lives in
// internal/store/persist_test.go; this test closes the loop at the layer
// users see: whole queries over an SNB dataset with its update stream.

// persistPools builds a small parameter pool over the generated dataset,
// mirroring what the driver's curation pipeline feeds the registries.
func persistPools(env *Env) *workload.ParamPools {
	var end int64
	for i := range env.Full.Posts {
		if d := env.Full.Posts[i].CreationDate; d > end {
			end = d
		}
	}
	pp := &workload.ParamPools{
		CountryX:     0,
		CountryY:     1,
		NumCountries: 25,
		MaxDate:      end,
		WindowMillis: 120 * 24 * 3600 * 1000,
		BeforeYear:   2013,
	}
	pp.StartDate = pp.MaxDate - pp.WindowMillis
	for i := range env.Full.Persons {
		pp.Persons = append(pp.Persons, env.Full.Persons[i].ID)
		if len(pp.Persons) >= 24 {
			break
		}
	}
	pp.PersonsQ5 = pp.Persons
	seen := map[string]bool{}
	for i := range env.Full.Persons {
		if n := env.Full.Persons[i].FirstName; !seen[n] {
			seen[n] = true
			pp.FirstNames = append(pp.FirstNames, n)
		}
	}
	for i := 0; i < 16; i++ {
		pp.Tags = append(pp.Tags, schema.TagNodeID(i*7))
		pp.TagClasses = append(pp.TagClasses, ids.DimensionID(ids.KindTagClass, uint32(i)))
	}
	return pp
}

// assertWorkloadEquiv runs every complex query (frozen-view path) and
// every BI query (serial view, morsel-parallel view, MVCC txn) with
// identical parameter draws against both stores and requires identical
// results.
func assertWorkloadEquiv(t *testing.T, live, rec *store.Store, pp *workload.ParamPools) {
	t.Helper()
	if lc, rc := live.LastCommit(), rec.LastCommit(); lc != rc {
		t.Fatalf("clocks diverge: live %d recovered %d", lc, rc)
	}
	lv, rv := live.CurrentView(), rec.CurrentView()
	lsc, rsc := workload.NewScratch(), workload.NewScratch()
	lr, rr := xrand.New(99), xrand.New(99)
	for q := range workload.Complex {
		spec := &workload.Complex[q]
		lp, rp := spec.Bind(pp, lr), spec.Bind(pp, rr)
		if lp != rp {
			t.Fatalf("%s: parameter draws diverged", spec.Name)
		}
		lres := spec.RunView(lv, lsc, lp)
		rres := spec.RunView(rv, rsc, rp)
		if !reflect.DeepEqual(lres, rres) {
			t.Fatalf("%s: live %+v recovered %+v", spec.Name, lres, rres)
		}
	}
	for q := range bi.Registry {
		spec := &bi.Registry[q]
		lp, rp := spec.Bind(pp, lr), spec.Bind(pp, rr)
		lres := spec.RunView(lv, lsc, lp)
		if rres := spec.RunView(rv, rsc, rp); rres != lres {
			t.Fatalf("%s serial view: live %+v recovered %+v", spec.Name, lres, rres)
		}
		if rres := spec.RunPar(rv, exec.Config{Workers: 2, MorselSize: 64}, rp); rres != lres {
			t.Fatalf("%s parallel view: live %+v recovered %+v", spec.Name, lres, rres)
		}
		rec.View(func(tx *store.Txn) {
			if rres := spec.RunTxn(tx, rsc, rp); rres != lres {
				t.Fatalf("%s txn: live view %+v recovered txn %+v", spec.Name, lres, rres)
			}
		})
	}
}

// TestRecoveredStoreServesWorkload sweeps the recovery-equivalence check
// across scales: the default quick scale always runs, the 1000-person
// scale (the memory benchmarks' first big step) is exercised by
// `make bench-smoke` so the compact checkpoint format is proven at a
// scale where dictionary and varint sections actually matter.
func TestRecoveredStoreServesWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset load + double update replay")
	}
	t.Run("100p", func(t *testing.T) { testRecoveredStoreServesWorkload(t, 100) })
	t.Run("1000p", func(t *testing.T) {
		if os.Getenv("SNB_SMOKE_FULL") == "" {
			t.Skip("1000-person sweep: set SNB_SMOKE_FULL=1 (make bench-smoke)")
		}
		testRecoveredStoreServesWorkload(t, 1000)
	})
}

func testRecoveredStoreServesWorkload(t *testing.T, persons int) {
	const seed = 42

	liveEnv, err := NewEnv(persons, seed)
	if err != nil {
		t.Fatal(err)
	}
	pp := persistPools(liveEnv)

	dir := filepath.Join(t.TempDir(), "data")
	p, info, err := store.Open(dir, store.PersistOptions{CheckpointBytes: -1, SegmentBytes: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !info.Fresh {
		t.Fatalf("fresh dir not fresh: %+v", info)
	}
	durEnv := NewEnvData(persons, seed)
	if err := durEnv.LoadInto(p.Store); err != nil {
		t.Fatal(err)
	}

	// Replay the update stream sequentially and identically on both
	// stores, checkpointing the durable one mid-stream so recovery
	// exercises checkpoint + tail (not full replay).
	liveConn := &driver.StoreConnector{Store: liveEnv.Store}
	durConn := &driver.StoreConnector{Store: p.Store}
	half := len(durEnv.Updates) / 2
	for i := range durEnv.Updates {
		if err := liveConn.Execute(&liveEnv.Updates[i]); err != nil {
			t.Fatal(err)
		}
		if err := durConn.Execute(&durEnv.Updates[i]); err != nil {
			t.Fatal(err)
		}
		if i == half {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash image: recover a copy while the original keeps running.
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)
	re, rinfo, err := store.Open(crash, store.PersistOptions{CheckpointBytes: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rinfo.CheckpointTS == 0 || rinfo.Replayed == 0 {
		t.Fatalf("recovery should have used checkpoint + tail: %+v", rinfo)
	}
	assertWorkloadEquiv(t, liveEnv.Store, re.Store, pp)

	// Clean shutdown + reopen of the original directory.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re2, _, err := store.Open(dir, store.PersistOptions{CheckpointBytes: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	assertWorkloadEquiv(t, liveEnv.Store, re2.Store, pp)
}

// copyTree is a recursive file copy (the crash image helper).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
