package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRepeat runs each workload k times in fresh child processes, on seeds
// seed, seed+1, ..., and prints for every metric the median, the quartiles
// and the two spreads the acceptance gate looks at: (q3-q1)/median and
// (max-min)/median. Quartiles follow Python's statistics.quantiles(n=4).
func runRepeat(cfg *config, names []string, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	defs := endToEnd
	if cfg.trace {
		trace, defs = "1", perLayer
	}
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(cfg.seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, seed %d: %w", name, cfg.seed+uint64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s, seed %d: %w", name, cfg.seed+uint64(i), err)
			}
			if !res.Correct {
				return fmt.Errorf("%s, seed %d: %d of %d ops failed", name, cfg.seed+uint64(i), res.Failed, res.Attempted)
			}
			for metric, v := range res.Metrics {
				values[metric] = append(values[metric], v.Value)
			}
		}
		fmt.Printf("%s, %d runs, seeds %d..%d, %g s\n", name, k, cfg.seed, cfg.seed+uint64(k)-1, cfg.seconds)
		fmt.Printf("  %-28s %-6s %14s %14s %14s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med")
		for _, d := range defs {
			v := append([]float64(nil), values[d.name]...)
			sort.Float64s(v)
			q1, med, q3 := quartiles(v)
			fmt.Printf("  %-28s %-6s %14.4f %14.4f %14.4f %9.4f %9.4f\n", d.name, d.unit, med, q1, q3,
				ratio(q3-q1, med), ratio(v[len(v)-1]-v[0], med))
		}
		fmt.Println("  values in run order:")
		for _, d := range defs {
			fmt.Printf("  %-28s", d.name)
			for _, x := range values[d.name] {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
	}
	return nil
}

// quartiles of an ascending sample by the exclusive method.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n < 2 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(n-1, i*(n+1)/4))
		delta := float64(i*(n+1)-j*4) / 4
		return v[j-1]*(1-delta) + v[j]*delta
	}
	return cut(1), cut(2), cut(3)
}
