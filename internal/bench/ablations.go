package bench

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/params"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// Ablation experiments for the paper's design choices (windowed execution,
// time-ordered IDs, curated parameters) beyond the Figure 4 join ablation.

// AblationWindowed — sequential/windowed vs per-dependent synchronisation:
// replay the same update stream in parallel mode (every dependent waits on
// its exact T_DEP) and in windowed mode (one wait target per T_SAFE
// window), comparing wall time and throughput. §4.2: windowing reduces
// "communication overhead" between driver threads.
func AblationWindowed(env *Env, partitions int) *Result {
	updates := env.Updates
	if len(updates) > 6000 {
		updates = updates[:6000]
	}
	res := &Result{
		ID:     "Ablation W",
		Title:  "Parallel vs windowed execution (same stream, sleep connector)",
		Header: []string{"mode", "ops/s", "wall ms"},
		Notes:  "windowed mode must not be slower; with coarse sleep connectors the difference is small, it grows with synchronisation cost",
	}
	for _, mode := range []struct {
		name string
		m    driver.Mode
	}{{"parallel", driver.ModeUnpaced}, {"windowed", driver.ModeWindowed}} {
		conn := &driver.SleepConnector{Sleep: 200 * time.Microsecond}
		rep := driver.Run(driver.Config{Connector: conn, Streams: partitions, Mode: mode.m},
			driver.Partition(updates, partitions))
		res.Rows = append(res.Rows, []string{
			mode.name,
			fmt.Sprintf("%.0f", rep.OpsPerSec),
			strconv.FormatInt(rep.Wall.Milliseconds(), 10),
		})
	}
	return res
}

// AblationTimeOrderedIDs — the §2.4/§3 claim that time-ordered message
// identifiers give date-filtered scans locality and remove sorts: compare
// "newest 20 messages of a person before a date" using the stamp-ordered
// adjacency walk (what time-ordered IDs enable) against re-sorting after
// property lookups (what unordered IDs force).
func AblationTimeOrderedIDs(env *Env, reps int) *Result {
	if reps <= 0 {
		reps = 20
	}
	persons := env.Bulk.Persons
	n := len(persons)
	if n > 50 {
		n = 50
	}
	maxDate := datagen.UpdateCut

	res := &Result{
		ID:     "Ablation T",
		Title:  "Time-ordered IDs: stamp-sorted adjacency vs property re-sort (mean µs)",
		Header: []string{"strategy", "mean µs", "vs ordered"},
		Notes:  "IDs and hasCreator stamps encode creation order, so the ordered strategy avoids per-message property lookups and the final sort",
	}

	// Ordered strategy: edges carry creation stamps; sort edge slice only.
	var ordered, resorted time.Duration
	env.Store.View(func(tx *store.Txn) {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				msgs := tx.In(persons[i].ID, store.EdgeHasCreator)
				rows := make([]store.Edge, 0, len(msgs))
				for _, m := range msgs {
					if m.Stamp <= maxDate {
						rows = append(rows, m)
					}
				}
				sort.Slice(rows, func(a, b int) bool { return rows[a].Stamp > rows[b].Stamp })
				if len(rows) > 20 {
					rows = rows[:20]
				}
			}
		}
		ordered = time.Since(t0)

		// Unordered strategy: ignore stamps, fetch each message's
		// creationDate property (a second index round-trip per message),
		// then sort.
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				msgs := tx.In(persons[i].ID, store.EdgeHasCreator)
				type row struct {
					id ids.ID
					d  int64
				}
				rows := make([]row, 0, len(msgs))
				for _, m := range msgs {
					d := tx.Prop(m.To, store.PropCreationDate).Int()
					if d <= maxDate {
						rows = append(rows, row{m.To, d})
					}
				}
				sort.Slice(rows, func(a, b int) bool { return rows[a].d > rows[b].d })
				if len(rows) > 20 {
					rows = rows[:20]
				}
			}
		}
		resorted = time.Since(t0)
	})
	per := float64(reps * n)
	o := float64(ordered.Microseconds()) / per
	s := float64(resorted.Microseconds()) / per
	res.Rows = append(res.Rows, []string{"stamp-ordered adjacency", fmt.Sprintf("%.1f", o), "1.00x"})
	res.Rows = append(res.Rows, []string{"property re-sort", fmt.Sprintf("%.1f", s), fmt.Sprintf("%.2fx", s/o)})
	return res
}

// AblationCuratedMix — end-to-end effect of parameter curation on the
// benchmark score stability: run the Q5 slice of the mix twice with
// different random streams, under uniform vs curated parameters, and
// report the run-to-run mean drift (§4.1: uniform sampling gives
// "non-repeatable benchmark results").
func AblationCuratedMix(env *Env, k int) *Result {
	if k <= 0 {
		k = 15
	}
	res := &Result{
		ID:     "Ablation C",
		Title:  "Run-to-run Q5 mean drift: uniform vs curated parameters",
		Header: []string{"selection", "run1 mean ms", "run2 mean ms", "drift"},
		Notes:  "uniform parameter samples give different scores per run; curated samples repeat",
	}
	runMean := func(sel []uint64) float64 {
		var total time.Duration
		sc := workload.NewScratch()
		env.Store.View(func(tx *store.Txn) {
			for _, p := range sel {
				// Best-of-three per binding to suppress scheduler noise on
				// shared hosts (see Figure5b).
				best := time.Duration(1 << 62)
				for rep := 0; rep < 3; rep++ {
					t0 := time.Now()
					workload.Q5(tx, sc, ids.ID(p), datagen.SimStart)
					if d := time.Since(t0); d < best {
						best = d
					}
				}
				total += best
			}
		})
		return float64(total.Microseconds()) / 1000 / float64(len(sel))
	}
	tab := params.BuildQ5Table(env.Full)
	r1 := xrand.New(1001)
	r2 := xrand.New(2002)
	u1 := runMean(tab.UniformSample(k, r1.Uint64))
	u2 := runMean(tab.UniformSample(k, r2.Uint64))
	c1 := runMean(tab.Curate(k))
	c2 := runMean(tab.Curate(k))
	drift := func(a, b float64) string {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == 0 {
			return "inf"
		}
		return fmt.Sprintf("%.2fx", hi/lo)
	}
	res.Rows = append(res.Rows, []string{"uniform", ms(u1), ms(u2), drift(u1, u2)})
	res.Rows = append(res.Rows, []string{"curated", ms(c1), ms(c2), drift(c1, c2)})
	return res
}
