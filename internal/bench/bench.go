// Package bench regenerates every table and figure of the paper's
// evaluation (§5 plus the figures of §2 and §4.1), using the scaled-down
// datasets README.md describes. Each experiment returns a Result that
// renders as an ASCII table; bench_test.go exposes one testing.B benchmark
// per experiment and cmd/snb-report prints them all.
package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string // e.g. "Table 6", "Figure 5b"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string // expected shape vs the paper, caveats
}

// Render formats the result as an ASCII table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// Env is a generated-and-loaded benchmark environment shared by the
// experiments that need a populated store.
type Env struct {
	Cfg     datagen.Config
	Out     *datagen.Output
	Full    *schema.Dataset
	Bulk    *schema.Dataset
	Updates []schema.Update
	Store   *store.Store
}

// DefaultPersons is the default environment scale: large enough for every
// query to touch meaningful data, small enough for laptop benchmarking.
const DefaultPersons = 400

// NewEnv generates a dataset (with events enabled), splits it at the
// 32-month cut and bulk-loads a fresh in-memory store.
func NewEnv(persons int, seed uint64) (*Env, error) {
	e := NewEnvData(persons, seed)
	st := store.New()
	if err := e.LoadInto(st); err != nil {
		return nil, err
	}
	return e, nil
}

// NewEnvData generates the dataset and the bulk/update split without
// loading any store — for callers that load into a store they own, such as
// a durable store.Open store (snb-run -data-dir) or the recovery
// benchmarks. Generation is deterministic in (persons, seed).
func NewEnvData(persons int, seed uint64) *Env {
	if persons <= 0 {
		persons = DefaultPersons
	}
	cfg := datagen.Config{Seed: seed, Persons: persons, Workers: loadWorkers(), Events: true}
	out := datagen.Generate(cfg)
	bulk, updates := datagen.Split(out.Data, datagen.UpdateCut)
	return &Env{Cfg: cfg, Out: out, Full: out.Data, Bulk: bulk, Updates: updates}
}

// loadWorkers picks the generation/load parallelism for an environment:
// GOMAXPROCS clamped to [2, 8]. Store content is identical for any value
// (datagen's §2.4 guarantee; schema.Parts's ordered parts), so this only
// moves setup wall-clock time.
func loadWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	return w
}

// NewEnvStreamed builds an environment through the streaming pipeline:
// datagen.Stream chunks are split and written into bulk-load parts as they
// arrive, so the full dataset is never resident at once, and the parts are
// loaded as one commit at the end. For the same (persons, seed) the update
// stream is identical to NewEnv's, the commit clock is too, and the store
// holds the identical logical graph — same nodes, properties, adjacency,
// order included. Out/Full
// are unavailable (nil): use NewEnv when an experiment needs the raw
// dataset for parameter curation. This is the path the thousand-person
// memory benchmarks use.
func NewEnvStreamed(persons int, seed uint64) (*Env, error) {
	if persons <= 0 {
		persons = DefaultPersons
	}
	cfg := datagen.Config{Seed: seed, Persons: persons, Workers: loadWorkers(), Events: true}
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		return nil, err
	}
	e := &Env{Cfg: cfg, Store: st}

	ch, wait := datagen.Stream(cfg)
	var personCreated map[ids.ID]int64
	var parts []*store.Txn
	for c := range ch {
		if personCreated == nil {
			personCreated = make(map[ids.ID]int64, len(c.Persons))
			for i := range c.Persons {
				personCreated[c.Persons[i].ID] = c.Persons[i].CreationDate
			}
		}
		bulk, updates := datagen.SplitWith(c, datagen.UpdateCut, personCreated)
		p, err := schema.Parts(st, bulk, cfg.Workers)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p...)
		e.Updates = append(e.Updates, updates...)
	}
	wait()
	if err := st.Load(parts...); err != nil {
		return nil, err
	}
	// Chunks arrive class-major and pre-sorted; the stable global sort
	// reproduces Split-of-the-whole's update order exactly
	// (TestStreamSplitMatchesSplit pins this).
	slices.SortStableFunc(e.Updates, func(a, b schema.Update) int {
		return cmp.Compare(a.DueTime, b.DueTime)
	})
	return e, nil
}

// LoadInto bulk-loads the environment's dimension tables and bulk split
// into st — on a durable store, the dimensions as one logged commit and the
// bulk split as a checkpoint (store.Store.Load) — and adopts st as the
// environment's store.
func (e *Env) LoadInto(st *store.Store) error {
	if err := schema.LoadDimensions(st); err != nil {
		return err
	}
	if err := schema.LoadParallel(st, e.Bulk, e.Cfg.Workers); err != nil {
		return err
	}
	e.Store = st
	return nil
}

func ms(d float64) string { return fmt.Sprintf("%.3f", d) }
