// Algorithms: the SNB-Algorithms workload of §1 — PageRank, community
// detection, clustering coefficient and BFS over the same generated
// network the Interactive workload queries, demonstrating that the
// generator's correlations produce community structure "comparable to
// real data".
package main

import (
	"fmt"
	"log"

	"ldbcsnb/internal/algo"
	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

func main() {
	log.SetFlags(0)

	out := datagen.Generate(datagen.Config{Seed: 17, Persons: 300, Workers: 2})
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		log.Fatal(err)
	}
	if err := schema.Load(st, out.Data); err != nil {
		log.Fatal(err)
	}

	g := algo.ExtractKnows(st)
	fmt.Printf("friendship graph: %d vertices, %d directed edges\n\n", g.N(), len(g.Targets))

	// PageRank: the social hubs.
	pr := g.PageRank(0.85, 1e-9, 100)
	fmt.Println("top-5 persons by PageRank:")
	st.View(func(tx *store.Txn) {
		for rank, v := range algo.TopK(pr, 5) {
			n := tx.Resolve(g.IDs[v])
			fmt.Printf("  %d. %s %s  rank %.5f  degree %d\n", rank+1,
				tx.PropOf(n, store.PropFirstName).Str(),
				tx.PropOf(n, store.PropLastName).Str(),
				pr[v], g.Degree(int32(v)))
		}
	})

	// Clustering: homophily creates triangles.
	_, avg := g.ClusteringCoefficient()
	meanDeg := float64(len(g.Targets)) / float64(g.N())
	fmt.Printf("\naverage clustering coefficient: %.4f (random-graph expectation %.4f)\n",
		avg, meanDeg/float64(g.N()))

	// Communities.
	labels, count := g.Communities(50)
	sizes := map[int32]int{}
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("label propagation: %d communities, largest %d members\n", count, largest)

	// Components + BFS eccentricity sample.
	_, comps := g.ConnectedComponents()
	fmt.Printf("connected components: %d\n", comps)
	dist := g.BFS(g.IDs[0])
	maxD := int32(0)
	reach := 0
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
		if d >= 0 {
			reach++
		}
	}
	fmt.Printf("BFS from first person: reaches %d/%d vertices, eccentricity %d\n",
		reach, g.N(), maxD)
}
