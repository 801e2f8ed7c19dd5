package driver

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ldbcsnb/internal/datagen"
)

// TestPreparePoolsPinned pins every ParamPools field PreparePools derives
// from a generated dataset, for curated and for uniform Q5 selection. The
// digests were recorded before the PC-table builders moved from Go maps to
// the dense index: a change means a curated pool, its order (UniformSample
// draws Q5 rows by index) or a tie-break in Curate moved, and with it every
// op list the harness generates from the pools.
func TestPreparePoolsPinned(t *testing.T) {
	d := datagen.Generate(datagen.Config{Seed: 21, Persons: 250, Workers: 2}).Data
	for _, c := range []struct {
		uniform bool
		want    string
	}{
		{false, "46b0a3827053d614cb0396823087ec05b4e397eb1ef4f47eb79324269547ca83"},
		{true, "b1f471c6851ebdd6c8ec36d73aa8aab23975800e25367a4047e42c605d392efc"},
	} {
		pp := PreparePools(d, 7, c.uniform)
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", *pp))))
		if got != c.want {
			t.Errorf("uniform=%v: pools digest %s, want %s", c.uniform, got, c.want)
		}
	}
}

// BenchmarkPreparePools times the whole curation pipeline, PC tables
// included, on the dataset the benchmark harness generates (seed 1, with
// events), built outside the timer.
func BenchmarkPreparePools(b *testing.B) {
	for _, persons := range []int{1000, 2500} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			d := datagen.Generate(datagen.Config{Seed: 1, Persons: persons, Workers: 2, Events: true}).Data
			for b.Loop() {
				PreparePools(d, 7, false)
			}
		})
	}
}
