package bench

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/dict"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// Table2 — top-10 person.firstNames for persons located in Germany vs
// China. The paper's Table 2 (SF10, ~60k persons) lists Karl..Wilhelm and
// Yang..Peng. Small environments hold only a handful of Germans, so the
// experiment draws names through the generator's exact name path
// (dict.FirstName over the same purpose streams generatePerson uses) for a
// fixed per-country cohort, giving the SF10-scale sample the paper had.
func Table2(env *Env) *Result {
	const cohort = 20000
	de, cn := dict.CountryByName("Germany"), dict.CountryByName("China")
	top := func(country int) []string {
		counts := map[string]int{}
		for i := 0; i < cohort; i++ {
			r := xrand.New(env.Cfg.Seed, xrand.PurposeFirstName, uint64(country)<<32|uint64(i))
			counts[dict.FirstName(r, country, dict.GenderMale)]++
		}
		type nc struct {
			n string
			c int
		}
		var all []nc
		for n, c := range counts {
			all = append(all, nc{n, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c > all[j].c
			}
			return all[i].n < all[j].n
		})
		var out []string
		for i := 0; i < 10 && i < len(all); i++ {
			out = append(out, fmt.Sprintf("%s (%d)", all[i].n, all[i].c))
		}
		return out
	}
	german, chinese := top(de), top(cn)
	res := &Result{
		ID:     "Table 2",
		Title:  "Top-10 male first names by person.location",
		Header: []string{"rank", "Germany", "China"},
		Notes:  "paper heads: Karl,Hans,Wolfgang,... / Yang,Chen,Wei,...; same typical names must dominate (20k-draw cohort per country)",
	}
	for i := 0; i < 10; i++ {
		g, c := "-", "-"
		if i < len(german) {
			g = german[i]
		}
		if i < len(chinese) {
			c = chinese[i]
		}
		res.Rows = append(res.Rows, []string{strconv.Itoa(i + 1), g, c})
	}
	return res
}

// Table3 — dataset statistics across scale factors. The paper reports
// SF30..SF1000; we generate scaled-down SFs and additionally print the
// per-person ratios, which are the scale-free quantities that must match.
func Table3(scales []int, seed uint64) *Result {
	res := &Result{
		ID:     "Table 3",
		Title:  "SNB dataset statistics at different scale factors (scaled down)",
		Header: []string{"persons", "nodes", "edges", "friendships", "messages", "forums", "msg/person", "frnd/person"},
		Notes:  "paper SF30: 79 friendship rows & 541 messages & 10 forums per person; ratios should be same order of magnitude and grow with scale",
	}
	for _, n := range scales {
		out := datagen.Generate(datagen.Config{Seed: seed, Persons: n, Workers: 2})
		c := out.Data.Counts()
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(c.Persons),
			strconv.Itoa(c.Nodes()),
			strconv.Itoa(c.EdgesApprox()),
			strconv.Itoa(c.Friendships),
			strconv.Itoa(c.Messages()),
			strconv.Itoa(c.Forums),
			fmt.Sprintf("%.1f", float64(c.Messages())/float64(c.Persons)),
			fmt.Sprintf("%.1f", 2*float64(c.Friendships)/float64(c.Persons)),
		})
	}
	return res
}

// Table4 — the complex-query mix frequencies, as specified by the paper
// and as scaled to this environment's size (§4 "Scaling the workload").
func Table4(env *Env) *Result {
	res := &Result{
		ID:     "Table 4",
		Title:  "Frequency of complex read-only queries (updates per execution)",
		Header: []string{"query", "paper (SF10)", "scaled (this run)"},
		Notes:  "scaled frequency grows logarithmically with dataset size",
	}
	n := len(env.Full.Persons)
	for q := 1; q <= workload.NumComplexQueries; q++ {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("Q%d", q),
			strconv.Itoa(workload.Table4Frequencies[q-1]),
			strconv.Itoa(workload.ScaledFrequency(q, n)),
		})
	}
	return res
}

// Table5 — driver throughput (ops/second) versus partition count with a
// sleeping dummy connector, for 1ms and 100µs transaction latencies.
func Table5(env *Env, partitions []int) *Result {
	res := &Result{
		ID:     "Table 5",
		Title:  "Driver op/second vs #partitions (sleep connector)",
		Header: append([]string{"sleep"}, intsToStrings(partitions)...),
		Notes:  "paper: near-linear scaling 1->12 partitions (997->11298 ops/s at 1ms, 9745->110837 at 100µs); on hosts whose sleep granularity is ~1ms the 100µs row degenerates to the 1ms row",
	}
	updates := env.Updates
	if len(updates) > 4000 {
		updates = updates[:4000]
	}
	for _, sleep := range []time.Duration{time.Millisecond, 100 * time.Microsecond} {
		row := []string{sleep.String()}
		for _, n := range partitions {
			conn := &driver.SleepConnector{Sleep: sleep}
			rep := driver.Run(driver.Config{Connector: conn, Streams: n, Mode: driver.ModeUnpaced},
				driver.Partition(updates, n))
			row = append(row, fmt.Sprintf("%.0f", rep.OpsPerSec))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}

// RunInteractive executes the full mixed workload once and returns the
// report; Tables 6, 7 and 9 are different projections of it.
func RunInteractive(env *Env, perType int) *driver.MixedReport {
	updates := env.Updates
	if len(updates) > 20000 {
		updates = updates[:20000]
	}
	return driver.RunMixed(driver.MixedConfig{
		Store:          env.Store,
		Dataset:        env.Full,
		Updates:        updates,
		Streams:        2,
		ReadClients:    2,
		ComplexPerType: perType,
		Seed:           env.Cfg.Seed,
	})
}

// Table6 — mean runtime of the complex read-only queries.
func Table6(rep *driver.MixedReport) *Result {
	res := &Result{
		ID:     "Table 6",
		Title:  "Mean runtime of complex read-only queries (ms)",
		Header: []string{"query", "mean ms", "p99 ms", "count"},
		Notes:  "paper shape: Q9 and Q14/Q6 among the heaviest (2-3 hop scans), Q8/Q7 cheapest (own-message lookups)",
	}
	for q := 0; q < workload.NumComplexQueries; q++ {
		s := &rep.Complex[q]
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("Q%d", q+1),
			ms(float64(s.Mean()) / 1e6),
			ms(float64(s.Percentile(99)) / 1e6),
			strconv.Itoa(s.Count),
		})
	}
	return res
}

// Table7 — mean runtime of the simple read-only queries.
func Table7(rep *driver.MixedReport) *Result {
	res := &Result{
		ID:     "Table 7",
		Title:  "Mean runtime of simple read-only queries (ms)",
		Header: []string{"query", "mean ms", "count"},
		Notes:  "paper: all short reads are point lookups, orders of magnitude below complex reads",
	}
	for i := range rep.Short {
		s := &rep.Short[i]
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("S%d", i+1),
			ms(float64(s.Mean()) / 1e6),
			strconv.Itoa(s.Count),
		})
	}
	return res
}

// TableBI — mean runtime of the BI analyst lane's queries (the working-
// draft BI workload, run through bi.Registry on whichever path and worker
// fan-out the mixed config selected).
func TableBI(rep *driver.MixedReport) *Result {
	res := &Result{
		ID:     "Table BI",
		Title:  "Mean runtime of Business Intelligence queries (ms)",
		Header: []string{"query", "mean ms", "p99 ms", "count"},
		Notes:  "graph-wide scans, orders of magnitude above the Interactive reads; BI1-BI5 and BI8 are full fact-table scans, BI7 adds traversal",
	}
	for q := 0; q < bi.NumQueries; q++ {
		s := &rep.BI[q]
		res.Rows = append(res.Rows, []string{
			bi.Registry[q].Name,
			ms(float64(s.Mean()) / 1e6),
			ms(float64(s.Percentile(99)) / 1e6),
			strconv.Itoa(s.Count),
		})
	}
	return res
}

// MemoryLine is the store's footprint in one line: the mutable MVCC side
// per node and per adjacency entry, next to the same two numbers for the
// cached snapshot view.
func MemoryLine(st store.Stats) string {
	const mib = 1 << 20
	return fmt.Sprintf("mutable side %.1f MiB (%.0f B/node, %.1f B/adjacency entry); view %.1f MiB (%.0f B/node, %.1f B/adjacency entry)",
		float64(st.MutableBytes)/mib, st.MutableBytesPerNode(), st.MutableBytesPerEntry(),
		float64(st.View.TotalBytes())/mib, st.View.BytesPerNode(), st.View.BytesPerEdge())
}

// Table8 — sizes of the largest tables after bulk load.
func Table8(env *Env) *Result {
	st := env.Store.ComputeStats()
	res := &Result{
		ID:     "Table 8",
		Title:  "Largest tables (approximate bytes)",
		Header: []string{"kind", "name", "rows", "bytes"},
		Notes: "paper (Virtuoso SF300): post is the largest table, and a message-family table must be the largest here too; " +
			"the paper's largest index, on creationDate, has no counterpart: the engine keeps no secondary indexes, " +
			"and the hasCreator reverse adjacency, stamped with each message's creationDate, plays its role\n" +
			"memory: " + MemoryLine(st),
	}
	for i, t := range st.Tables {
		if i >= 5 {
			break
		}
		res.Rows = append(res.Rows, []string{"table", t.Name, strconv.Itoa(t.Rows), strconv.FormatInt(t.Bytes, 10)})
	}
	return res
}

// Table9 — mean runtime of the transactional updates.
func Table9(rep *driver.MixedReport) *Result {
	res := &Result{
		ID:     "Table 9",
		Title:  "Mean runtime of transactional updates (ms)",
		Header: []string{"update", "mean ms", "count"},
		Notes:  "paper: all updates are point insertions of O(log n); addPerson is the widest transaction",
	}
	for i := 0; i < schema.NumUpdateTypes; i++ {
		s := &rep.Update[i]
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("U%d (%s)", i+1, schema.UpdateType(i+1)),
			ms(float64(s.Mean()) / 1e6),
			strconv.Itoa(s.Count),
		})
	}
	return res
}
