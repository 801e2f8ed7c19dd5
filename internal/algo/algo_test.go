package algo

import (
	"math"
	"sync"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

var (
	gOnce sync.Once
	gVal  *Graph
	gData *schema.Dataset
)

func testGraph(t *testing.T) (*Graph, *schema.Dataset) {
	t.Helper()
	gOnce.Do(func() {
		out := datagen.Generate(datagen.Config{Seed: 31, Persons: 250, Workers: 2})
		st := store.New()
		if err := schema.LoadDimensions(st); err != nil {
			panic(err)
		}
		if err := schema.Load(st, out.Data); err != nil {
			panic(err)
		}
		gVal = ExtractKnows(st)
		gData = out.Data
	})
	return gVal, gData
}

func TestExtractMatchesDataset(t *testing.T) {
	g, d := testGraph(t)
	if g.N() != len(d.Persons) {
		t.Fatalf("vertices %d, persons %d", g.N(), len(d.Persons))
	}
	// Total directed adjacency entries = 2 * friendships.
	if len(g.Targets) != 2*len(d.Knows) {
		t.Fatalf("adjacency %d, knows %d", len(g.Targets), len(d.Knows))
	}
	// Symmetry: w in N(v) <=> v in N(w).
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Neighbours(v) {
			found := false
			for _, x := range g.Neighbours(w) {
				if x == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric edge %d-%d", v, w)
			}
		}
	}
}

func TestBFSAgainstDatasetDistances(t *testing.T) {
	g, d := testGraph(t)
	src := d.Persons[0].ID
	dist := g.BFS(src)
	if dist[g.Index[src]] != 0 {
		t.Fatal("source distance")
	}
	// Triangle inequality over edges: |d(v)-d(w)| <= 1 for every edge.
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Neighbours(v) {
			dv, dw := dist[v], dist[w]
			if dv >= 0 && dw >= 0 && dv-dw > 1 {
				t.Fatalf("BFS levels inconsistent: %d vs %d", dv, dw)
			}
			if (dv < 0) != (dw < 0) {
				t.Fatal("reachability must be edge-closed")
			}
		}
	}
}

func TestBFSUnknownSource(t *testing.T) {
	g, _ := testGraph(t)
	dist := g.BFS(ids.Compose(ids.KindPerson, 1<<39, 99))
	for _, v := range dist {
		if v != -1 {
			t.Fatal("unknown source should reach nothing")
		}
	}
}

func TestPageRankProperties(t *testing.T) {
	g, _ := testGraph(t)
	pr := g.PageRank(0.85, 1e-9, 100)
	sum := 0.0
	for _, v := range pr {
		if v <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
	// Rank correlates with degree on friendship graphs: the max-degree
	// vertex must rank above the median vertex.
	maxV, maxD := int32(0), -1
	for v := int32(0); v < int32(g.N()); v++ {
		if d := g.Degree(v); d > maxD {
			maxV, maxD = v, d
		}
	}
	med := pr[g.N()/2]
	if pr[maxV] <= med {
		t.Fatalf("hub rank %v not above median %v", pr[maxV], med)
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	var g Graph
	if got := g.PageRank(0.85, 1e-6, 10); got != nil {
		t.Fatal("empty graph")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	g, _ := testGraph(t)
	local, avg := g.ClusteringCoefficient()
	if len(local) != g.N() {
		t.Fatal("length")
	}
	for _, c := range local {
		if c < 0 || c > 1 {
			t.Fatalf("coefficient out of range: %v", c)
		}
	}
	// Homophily must create far more triangles than a random graph with
	// the same density: ER expectation is mean degree / n.
	meanDeg := float64(len(g.Targets)) / float64(g.N())
	er := meanDeg / float64(g.N())
	if avg < 3*er {
		t.Fatalf("clustering %v not above random expectation %v", avg, er)
	}
}

func TestCommunitiesNonTrivial(t *testing.T) {
	g, _ := testGraph(t)
	labels, count := g.Communities(50)
	if len(labels) != g.N() {
		t.Fatal("labels length")
	}
	if count <= 0 || count >= g.N() {
		t.Fatalf("degenerate community count %d of %d", count, g.N())
	}
	// Deterministic.
	labels2, count2 := g.Communities(50)
	if count != count2 {
		t.Fatal("community detection not deterministic")
	}
	for i := range labels {
		if labels[i] != labels2[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestConnectedComponentsGiant(t *testing.T) {
	g, _ := testGraph(t)
	labels, count := g.ConnectedComponents()
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	giant := 0
	for _, s := range sizes {
		if s > giant {
			giant = s
		}
	}
	// §2: the persons form (nearly) one connected component.
	if float64(giant) < 0.8*float64(g.N()) {
		t.Fatalf("giant component %d of %d too small", giant, g.N())
	}
}

func TestTopK(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(vals, 2)
	if len(top) != 2 || vals[top[0]] != 0.9 || vals[top[1]] != 0.9 {
		t.Fatalf("top = %v", top)
	}
	if got := TopK(vals, 99); len(got) != len(vals) {
		t.Fatal("k clamp")
	}
}
