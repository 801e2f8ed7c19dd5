package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeConfig is a run small enough for `go test`: 100 persons, op lists of
// a fraction of a second.
func smokeConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 5, seconds: 0.2, trace: trace, persons: 100, outDir: t.TempDir()}
}

// oneRound is the named workload cut to a single round.
func oneRound(name string) *workloadDef {
	w := *lookup(name)
	w.rounds = 1
	return &w
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit, Better string }

func readContract(t *testing.T) *contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

func defsOf(ms []contractMetric) []metricDef {
	var out []metricDef
	for _, m := range ms {
		out = append(out, metricDef{m.Name, m.Unit})
	}
	return out
}

// TestContractMatchesHarness pins BENCHMARK.json to the tables the harness
// prints from: same workloads, same metric names and units, in order.
func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if got := defsOf(c.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, harness %v", got, endToEnd)
	}
	if got := defsOf(c.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs from the harness table:\n%v\n%v", got, perLayer)
	}
	if !reflect.DeepEqual(c.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", c.Paths)
	}
}

// TestSmoke runs all four workloads, untraced and traced, and checks that
// every metric BENCHMARK.json names is printed with a finite value, that no
// op failed, and that the trace is a forest of root ops whose children fit
// inside them.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, def := range workloads {
		w := oneRound(def.name)
		t.Run(w.name, func(t *testing.T) {
			plain, err := runWorkload(smokeConfig(t, w.name, false), w)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain, c.EndToEnd)
			if v := plain.Metrics["ok_ratio"].Value; v != 1 {
				t.Errorf("ok_ratio = %v", v)
			}

			cfg := smokeConfig(t, w.name, true)
			traced, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced, c.PerLayer)
			if v := traced.Metrics["trace.overhead_ratio"].Value; v <= 0 {
				t.Errorf("trace.overhead_ratio = %v", v)
			}
			checkTrace(t, filepath.Join(cfg.outDir, w.name+".trace.jsonl"))
		})
	}
}

func checkResult(t *testing.T, res *result, want []contractMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s is not printed", m.Name)
		} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %v %q, want a finite value in %q", m.Name, got.Value, got.Unit, m.Unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	type line struct {
		ID, Op, Parent int
		Name           string
		Start          int64 `json:"start_ns"`
		End            int64 `json:"end_ns"`
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if l.ID != len(spans) {
			t.Fatalf("span id %d on line %d", l.ID, len(spans))
		}
		spans = append(spans, l)
	}
	if len(spans) == 0 {
		t.Fatal("empty trace")
	}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			if s.Op != s.ID {
				t.Errorf("root span %d carries op %d", s.ID, s.Op)
			}
			continue
		}
		if s.Parent >= len(spans) {
			t.Fatalf("span %d names parent %d, which does not exist", s.ID, s.Parent)
		}
		p := spans[s.Parent]
		if s.Op != p.Op {
			t.Errorf("span %d is in op %d, its parent in op %d", s.ID, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		children[s.Parent] += s.End - s.Start
	}
	for i, s := range spans {
		if children[i] > s.End-s.Start {
			t.Errorf("children of span %d (%s) sum to %d ns, the span lasts %d ns", i, s.Name, children[i], s.End-s.Start)
		}
	}
}

// TestMixedRepeats pins the coupling of reads and updates: one seed executes
// the same reads and the same commits in every run.
func TestMixedRepeats(t *testing.T) {
	w := oneRound("interactive-mixed")
	var attempted [2]int64
	var samples [2]float64
	for i := range attempted {
		res, err := runPass(smokeConfig(t, w.name, false), w, false)
		if err != nil {
			t.Fatal(err)
		}
		attempted[i], samples[i] = res.attempted, res.m["bench.samples"]
	}
	if attempted[0] != attempted[1] || samples[0] != samples[1] {
		t.Errorf("two runs of one seed: %d and %d ops attempted, %v and %v reads", attempted[0], attempted[1], samples[0], samples[1])
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
