// Quickstart: generate a tiny social network, load it into the store, and
// run two Interactive queries (Q2 "friends' newest messages" and Q9
// "latest posts in the 2-hop environment") for one person.
//
// The queries go through the unified Reader API: each has a single generic
// implementation that runs on either read path. This demo executes them on
// the lock-free frozen snapshot view (the Interactive hot path) and then
// cross-checks the same calls on an MVCC read transaction.
package main

import (
	"fmt"
	"log"
	"reflect"
	"time"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Generate a deterministic 150-person network.
	out := datagen.Generate(datagen.Config{Seed: 1, Persons: 150, Workers: 2})
	c := out.Data.Counts()
	fmt.Printf("generated %d persons, %d friendships, %d messages\n",
		c.Persons, c.Friendships, c.Messages())

	// 2. Load it into the transactional graph store.
	st := store.New()
	if err := schema.LoadDimensions(st); err != nil {
		log.Fatal(err)
	}
	if err := schema.Load(st, out.Data); err != nil {
		log.Fatal(err)
	}

	// 3. Pick the best-connected person, the lowest ID among equals (map
	// order is random).
	deg := map[ids.ID]int{}
	for _, k := range out.Data.Knows {
		deg[k.A]++
		deg[k.B]++
	}
	var start ids.ID
	best := -1
	for p, d := range deg {
		if d > best || d == best && p < start {
			start, best = p, d
		}
	}

	// 4. Run Q2 and Q9 on the frozen snapshot view: lock-free reads over
	// the CSR-compacted image of the current commit epoch, with a reusable
	// Scratch carrying the traversal state.
	v := st.CurrentView()
	sc := workload.NewScratch()

	s := v.Resolve(start)
	name := v.PropOf(s, store.PropFirstName).Str() + " " +
		v.PropOf(s, store.PropLastName).Str()
	fmt.Printf("\nstart person: %s (%d friends)\n\n", name, best)

	q2 := workload.Q2(v, sc, start, datagen.SimEnd)
	fmt.Println("Q2 — newest messages from direct friends (view path):")
	for i, row := range q2 {
		who := v.PropOf(store.ByID(row.Creator), store.PropFirstName).Str()
		fmt.Printf("  %2d. %s at %s (%v)\n", i+1, who,
			time.UnixMilli(row.CreationDate).UTC().Format("2006-01-02 15:04"),
			row.Message.Kind())
		if i == 4 {
			break
		}
	}

	q9 := workload.Q9(v, sc, start, datagen.SimEnd)
	fmt.Println("\nQ9 — latest posts from friends and friends-of-friends (view path):")
	for i, row := range q9 {
		who := v.PropOf(store.ByID(row.Creator), store.PropFirstName).Str()
		fmt.Printf("  %2d. %s at %s\n", i+1, who,
			time.UnixMilli(row.CreationDate).UTC().Format("2006-01-02 15:04"))
		if i == 4 {
			break
		}
	}

	// 5. The same implementations run on an MVCC read transaction — one
	// query definition, two interchangeable readers.
	st.View(func(tx *store.Txn) {
		sameQ2 := reflect.DeepEqual(q2, workload.Q2(tx, sc, start, datagen.SimEnd))
		sameQ9 := reflect.DeepEqual(q9, workload.Q9(tx, sc, start, datagen.SimEnd))
		fmt.Printf("\ntxn path returns identical rows: Q2=%v Q9=%v\n", sameQ2, sameQ9)
	})
}
