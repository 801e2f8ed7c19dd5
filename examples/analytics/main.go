// Analytics: run the SNB Business Intelligence workload over a snapshot
// view — on one worker and on all of them — and show what the graph-wide
// aggregations return.
//
// Every BI query has one generic body (internal/bi) that runs on the MVCC
// transaction path or the lock-free view path and takes its fan-out as an
// argument: internal/exec cuts the scanned node lists into morsels, each
// worker folds its morsels into a private partial aggregate, and the
// finalize merges them. This demo times one worker against GOMAXPROCS per
// query — on a multi-core host the scan-heavy queries speed up with the
// worker count — and prints the head of the posting summary, the
// engagement ranking and the thread-depth histogram.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Generate and load a deterministic 300-person network.
	out := datagen.Generate(datagen.Config{Seed: 3, Persons: 300, Workers: 2, Events: true})
	c := out.Data.Counts()
	fmt.Printf("generated %d persons, %d messages, %d forums\n", c.Persons, c.Messages(), c.Forums)
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		log.Fatal(err)
	}
	if err := schema.Load(st, out.Data); err != nil {
		log.Fatal(err)
	}

	// 2. Take a view of the current commit epoch and run all eight BI
	// templates through the registry, one worker vs GOMAXPROCS.
	v := st.CurrentView()
	sc := workload.NewScratch()
	par := exec.Config{} // GOMAXPROCS workers, default morsel size
	win := int64(120 * 24 * 3600 * 1000)
	params := [bi.NumQueries]bi.Params{
		1: {WindowStart: datagen.SimEnd - 2*win, WindowMillis: win, Limit: 10},
		3: {Limit: 20},
		5: {CreatedBefore: datagen.SimEnd, MaxMessages: 3},
		6: {Limit: 10},
	}
	fmt.Printf("\n%-5s  %10s  %10s  (parallel = %d workers)\n",
		"query", "serial", "parallel", par.NumWorkers())
	for q := range bi.Registry {
		spec := &bi.Registry[q]
		t0 := time.Now()
		serial := spec.RunView(v, sc, params[q])
		dSerial := time.Since(t0)
		t0 = time.Now()
		parallel := spec.RunPar(v, par, params[q])
		dPar := time.Since(t0)
		if serial != parallel {
			log.Fatalf("%s: serial and parallel paths disagree: %+v vs %+v", spec.Name, serial, parallel)
		}
		fmt.Printf("%-5s  %10v  %10v  (%d rows)\n", spec.Name, dSerial.Round(time.Microsecond), dPar.Round(time.Microsecond), serial.Rows)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("note: single-core host — parallel timings measure scheduling overhead, not speedup")
	}

	// 3. A taste of the results themselves.
	fmt.Println("\nBI1 posting summary (first 3 groups):")
	for i, row := range bi.BI1(v, par) {
		if i >= 3 {
			break
		}
		kind := "post"
		if row.IsComment {
			kind = "comment"
		}
		fmt.Printf("  %d-%02d %-7s len-class %d: %4d messages, avg length %.1f\n",
			row.Year, int(row.Month), kind, row.LengthClass, row.MessageCount, row.AvgLength)
	}
	fmt.Println("BI4 engagement top 3:")
	for i, row := range bi.BI4(v, par, 3) {
		fmt.Printf("  #%d person %v: %d messages, %d likes, %d replies (score %d)\n",
			i+1, row.Person, row.Messages, row.Likes, row.Replies, row.Score)
	}
	fmt.Println("BI8 thread depth histogram:")
	for _, row := range bi.BI8(v, par) {
		fmt.Printf("  depth %d: %d comments\n", row.Depth, row.Comments)
	}
}
