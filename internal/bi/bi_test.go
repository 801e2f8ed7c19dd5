package bi

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

var (
	once sync.Once
	st   *store.Store
	data *schema.Dataset
)

func setup(t *testing.T) (*store.Store, *schema.Dataset) {
	t.Helper()
	once.Do(func() {
		out := datagen.Generate(datagen.Config{Seed: 41, Persons: 200, Workers: 2})
		st = store.New()
		if err := schema.LoadDimensions(st); err != nil {
			panic(err)
		}
		if err := schema.Load(st, out.Data); err != nil {
			panic(err)
		}
		data = out.Data
	})
	return st, data
}

func TestBI1PostingSummary(t *testing.T) {
	s, d := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI1(tx, serial)
		if len(rows) == 0 {
			t.Fatal("no groups")
		}
		total := 0
		for _, r := range rows {
			total += r.MessageCount
			if r.MessageCount <= 0 {
				t.Fatal("empty group emitted")
			}
			if r.AvgLength < 0 {
				t.Fatal("negative length")
			}
			if r.LengthClass < 0 || r.LengthClass > 2 {
				t.Fatal("length class")
			}
		}
		want := d.Counts().Messages()
		if total != want {
			t.Fatalf("group-by lost rows: %d of %d", total, want)
		}
		// Sorted by (year, month).
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			if a.Year > b.Year {
				t.Fatal("year order")
			}
		}
	})
}

func TestBI2TagEvolution(t *testing.T) {
	s, _ := setup(t)
	s.View(func(tx *store.Txn) {
		win := int64(120 * 24 * 3600 * 1000)
		rows := BI2(tx, serial, datagen.SimStart+win, win, 10)
		if len(rows) == 0 {
			t.Fatal("no tags")
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Difference > rows[i-1].Difference {
				t.Fatal("not sorted by difference")
			}
		}
		for _, r := range rows {
			if r.Difference != abs(r.CountA-r.CountB) {
				t.Fatal("difference arithmetic")
			}
			if r.Name == "" {
				t.Fatal("missing tag name")
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestBI3TopicsByCountry(t *testing.T) {
	s, _ := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI3(tx, serial)
		if len(rows) == 0 {
			t.Fatal("no countries")
		}
		seen := map[int]bool{}
		for _, r := range rows {
			if seen[r.Country] {
				t.Fatal("country repeated")
			}
			seen[r.Country] = true
			if r.Count <= 0 {
				t.Fatal("zero count")
			}
		}
	})
}

func TestBI4Engagement(t *testing.T) {
	s, d := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI4(tx, serial, 20)
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		for i, r := range rows {
			if r.Score != r.Messages+2*r.Likes+2*r.Replies {
				t.Fatal("score formula")
			}
			if i > 0 && r.Score > rows[i-1].Score {
				t.Fatal("order")
			}
		}
		// The top person must actually have messages in the dataset.
		top := rows[0].Person
		n := 0
		for i := range d.Posts {
			if d.Posts[i].Creator == top {
				n++
			}
		}
		for i := range d.Comments {
			if d.Comments[i].Creator == top {
				n++
			}
		}
		if n != rows[0].Messages {
			t.Fatalf("top poster messages %d, dataset says %d", rows[0].Messages, n)
		}
	})
}

func TestBI5RollupMonotone(t *testing.T) {
	s, _ := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI5(tx, serial)
		if len(rows) == 0 {
			t.Fatal("no classes")
		}
		// The root class "Thing" must carry the grand total (every tag is
		// under Thing) and therefore rank first.
		if rows[0].Name != "Thing" {
			t.Fatalf("root class should lead rollup, got %s", rows[0].Name)
		}
		for _, r := range rows[1:] {
			if r.Messages > rows[0].Messages {
				t.Fatal("child exceeds root rollup")
			}
		}
	})
}

func TestBI6Zombies(t *testing.T) {
	s, _ := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI6(tx, serial, datagen.SimEnd, 3)
		for i, r := range rows {
			if r.Messages >= 3 {
				t.Fatal("filter broken")
			}
			if i > 0 && r.Messages < rows[i-1].Messages-1 && r.Messages > rows[i-1].Messages {
				t.Fatal("order")
			}
		}
		// Tightening the threshold can only shrink the result.
		tight := BI6(tx, serial, datagen.SimEnd, 1)
		if len(tight) > len(rows) {
			t.Fatal("monotonicity")
		}
	})
}

func TestBI7ForumReach(t *testing.T) {
	s, _ := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI7(tx, serial, workload.NewScratch(), 10)
		if len(rows) == 0 {
			t.Fatal("no forums")
		}
		for i, r := range rows {
			if r.Reach < r.Members {
				t.Fatalf("reach %d below members %d", r.Reach, r.Members)
			}
			if i > 0 && r.Members > rows[i-1].Members {
				t.Fatal("forums not ordered by membership")
			}
		}
	})
}

// TestBI7SelectMatchesSort checks the one-pass top-limit selection against
// a full sort in the same (members desc, ID asc) order, on shuffled IDs with
// many tied member counts and limits from none to more than there are.
func TestBI7SelectMatchesSort(t *testing.T) {
	r := xrand.New(7)
	forums := make([]ids.ID, 300)
	members := make([]int, len(forums))
	for i, p := range r.Perm(len(forums)) {
		forums[i] = ids.Compose(ids.KindForum, int64(p), 0)
		members[i] = r.Intn(20)
	}
	order := make([]int, len(forums))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if members[a] != members[b] {
			return members[a] > members[b]
		}
		return forums[a] < forums[b]
	})
	for _, limit := range []int{0, 1, 10, 299, 300, 500} {
		got := bi7Select(forums, members, limit)
		if want := order[:min(limit, len(order))]; !slices.Equal(got, want) {
			t.Fatalf("limit %d: got %v, want %v", limit, got, want)
		}
	}
}

func TestBI8ThreadDepths(t *testing.T) {
	s, d := setup(t)
	s.View(func(tx *store.Txn) {
		rows := BI8(tx, serial)
		if len(rows) == 0 {
			t.Fatal("no depths")
		}
		total := 0
		prev := -1
		for _, r := range rows {
			if r.Depth <= prev {
				t.Fatal("depth order")
			}
			prev = r.Depth
			if r.Depth < 1 {
				t.Fatalf("comment at depth %d", r.Depth)
			}
			total += r.Comments
		}
		if total != len(d.Comments) {
			t.Fatalf("histogram covers %d of %d comments", total, len(d.Comments))
		}
		// Discussion trees: some comments reply to comments (depth >= 2).
		if len(rows) < 2 {
			t.Fatal("no nested replies; reply trees missing")
		}
	})
}
