// snb-datagen generates an SNB social network: the bulk-load CSV dataset,
// the update-stream summary, and curated query parameters — the Go
// counterpart of the paper's Hadoop DATAGEN (§2).
//
// Usage:
//
//	snb-datagen -sf 0.1 -out ./data [-seed 42] [-workers 4] [-events]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/params"
	"ldbcsnb/internal/schema"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snb-datagen: ")

	sf := flag.Float64("sf", 0.05, "scale factor (1.0 = 6000 persons ≈ 1 GB CSV at full fidelity)")
	personsFlag := flag.Int("persons", 0, "explicit person count (overrides -sf)")
	out := flag.String("out", "snb-data", "output directory")
	seed := flag.Uint64("seed", 42, "generator seed (same seed, same dataset)")
	workers := flag.Int("workers", 2, "parallel generation workers (output is identical for any value)")
	events := flag.Bool("events", true, "enable event-driven spiking trends (Figure 2a)")
	curateK := flag.Int("curate", 50, "curated parameter bindings per query template")
	flag.Parse()

	persons := *personsFlag
	if persons == 0 {
		persons = datagen.PersonsForSF(*sf)
	}
	if persons < 2 {
		log.Fatal("need at least 2 persons")
	}

	fmt.Printf("generating %d persons (seed %d, %d workers, events %v)...\n",
		persons, *seed, *workers, *events)
	o := datagen.Generate(datagen.Config{
		Seed: *seed, Persons: persons, Workers: *workers, Events: *events,
	})
	c := o.Data.Counts()
	fmt.Printf("generated: %d persons, %d friendships, %d forums, %d posts, %d comments, %d likes\n",
		c.Persons, c.Friendships, c.Forums, c.Posts, c.Comments, c.Likes)

	bulk, updates := datagen.Split(o.Data, datagen.UpdateCut)
	fmt.Printf("split at 32 months: %d bulk entities, %d update operations\n",
		bulk.Counts().Persons+bulk.Counts().Messages(), len(updates))

	bulkDir := filepath.Join(*out, "bulk")
	n, err := schema.WriteCSVDir(bulk, bulkDir)
	if err != nil {
		log.Fatalf("write bulk CSV: %v", err)
	}
	fmt.Printf("bulk CSV: %s (%.2f MB)\n", bulkDir, float64(n)/(1<<20))

	fullDir := filepath.Join(*out, "full")
	if _, err := schema.WriteCSVDir(o.Data, fullDir); err != nil {
		log.Fatalf("write full CSV: %v", err)
	}
	fmt.Printf("full CSV: %s\n", fullDir)

	// Curated parameters (§4.1), written as one CSV per query template.
	if err := writeParams(*out, o.Data, *curateK); err != nil {
		log.Fatalf("parameter curation: %v", err)
	}
	fmt.Printf("curated parameters: %s\n", filepath.Join(*out, "params"))
}

func writeParams(out string, d *schema.Dataset, k int) error {
	dir := filepath.Join(out, "params")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	q2, q5, q9 := params.BuildPCTables(d)
	for _, c := range []struct {
		name string
		tab  *params.Table
	}{{"q2", q2}, {"q5", q5}, {"q9", q9}} {
		f, err := os.Create(filepath.Join(dir, c.name+"_persons.csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := w.Write([]string{"personId"}); err != nil {
			f.Close()
			return err
		}
		for _, p := range c.tab.Curate(k) {
			if err := w.Write([]string{strconv.FormatUint(p, 10)}); err != nil {
				f.Close()
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
