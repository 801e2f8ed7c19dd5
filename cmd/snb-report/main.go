// snb-report regenerates every table and figure of the paper's evaluation
// in one run and prints them as ASCII tables, with a note on the shape
// the paper reports attached to each.
//
// Usage:
//
//	snb-report [-persons 400] [-seed 42] [-quick]
package main

import (
	"flag"
	"fmt"
	"log"

	"ldbcsnb/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snb-report: ")

	persons := flag.Int("persons", bench.DefaultPersons, "environment scale (persons)")
	seed := flag.Uint64("seed", 42, "generator seed")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	flag.Parse()

	fmt.Printf("building environment: %d persons (seed %d)...\n\n", *persons, *seed)
	env, err := bench.NewEnv(*persons, *seed)
	if err != nil {
		log.Fatal(err)
	}

	scales := []int{100, 200, 400, 800}
	partitions := []int{1, 2, 4, 8}
	figScales := []int{100, 200, 400}
	workers := []int{1, 2, 4}
	perType := 3
	if *quick {
		scales = []int{100, 200}
		partitions = []int{1, 4}
		figScales = []int{100, 200}
		workers = []int{1, 2}
		perType = 1
	}

	fmt.Print(bench.Table2(env).Render())
	fmt.Println()
	fmt.Print(bench.Table3(scales, *seed).Render())
	fmt.Println()
	fmt.Print(bench.Table4(env).Render())
	fmt.Println()
	fmt.Print(bench.Table5(env, partitions).Render())
	fmt.Println()

	rep := bench.RunInteractive(env, perType)
	fmt.Print(bench.Table6(rep).Render())
	fmt.Println()
	fmt.Print(bench.Table7(rep).Render())
	fmt.Println()
	fmt.Print(bench.Table8(env).Render())
	fmt.Println()
	fmt.Print(bench.Table9(rep).Render())
	fmt.Println()

	fmt.Print(bench.Figure2a(200, *seed).Render())
	fmt.Println()
	fmt.Print(bench.Figure2b().Render())
	fmt.Println()
	fmt.Print(bench.Figure3a(env).Render())
	fmt.Println()
	fmt.Print(bench.Figure3b(figScales, workers, *seed).Render())
	fmt.Println()
	fmt.Print(bench.Figure4(env, 3).Render())
	fmt.Println()
	fmt.Print(bench.Figure5a(env).Render())
	fmt.Println()
	fmt.Print(bench.Figure5b(env, 20).Render())
	fmt.Println()
	fmt.Print(bench.AblationWindowed(env, 4).Render())
	fmt.Println()
	fmt.Print(bench.AblationTimeOrderedIDs(env, 5).Render())
	fmt.Println()
	fmt.Print(bench.AblationCuratedMix(env, 15).Render())
	fmt.Println()
	fmt.Printf("interactive run: wall %v, throughput %.0f ops/s, errors %d\n",
		rep.Wall.Round(1000000), rep.Throughput, rep.Errors)
}
