// Recommendation: the paper's Query 10 "friend recommendation" scenario —
// find friends-of-friends who post about what a person cares about,
// sweeping the zodiac-sign restriction, and contrast with the Q1
// name-search and Q13 shortest-path primitives.
//
// Everything runs on the frozen snapshot view through the unified Reader
// API: Q10 and Q13 gained the lock-free path with the Reader redesign, so
// a recommendation service built on this loop never takes a store lock.
package main

import (
	"fmt"
	"log"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/params"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

func main() {
	log.SetFlags(0)

	out := datagen.Generate(datagen.Config{Seed: 3, Persons: 300, Workers: 2})
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		log.Fatal(err)
	}
	if err := schema.Load(st, out.Data); err != nil {
		log.Fatal(err)
	}

	// Curated parameters: persons whose 2-hop neighbourhood is "typical"
	// (Parameter Curation, §4.1), so the demo is representative.
	tab := params.BuildQ9Table(out.Data)
	curated := tab.Curate(5)

	v := st.CurrentView()
	sc := workload.NewScratch()

	for _, pid := range curated {
		p := ids.ID(pid)
		pn := v.Resolve(p)
		name := v.PropOf(pn, store.PropFirstName).Str() + " " + v.PropOf(pn, store.PropLastName).Str()
		fmt.Printf("recommendations for %s:\n", name)
		found := 0
		for sign := 0; sign < 12 && found < 5; sign++ {
			for _, rec := range workload.Q10(v, sc, p, sign) {
				rn := v.Resolve(rec.Person)
				who := v.PropOf(rn, store.PropFirstName).Str() + " " +
					v.PropOf(rn, store.PropLastName).Str()
				dist := workload.Q13(v, sc, p, rec.Person)
				fmt.Printf("  %-24s score %4d  common interests %d  distance %d\n",
					who, rec.Score, rec.CommonTags, dist)
				found++
				if found >= 5 {
					break
				}
			}
		}
		if found == 0 {
			fmt.Println("  (no candidates)")
		}
		fmt.Println()
	}

	// Q1: find namesakes near the first curated person.
	p := ids.ID(curated[0])
	first := v.PropOf(store.ByID(p), store.PropFirstName).Str()
	rows := workload.Q1(v, sc, p, first)
	fmt.Printf("Q1 — persons named %q within 3 hops of the first person: %d\n", first, len(rows))
	for i, r := range rows {
		fmt.Printf("  %d. %s (distance %d)\n", i+1, r.LastName, r.Distance)
		if i == 4 {
			break
		}
	}
}
