package filter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mixen/internal/graph"
)

// refRows is the sort-based extraction the stable partition replaced: map
// every kept neighbour of node base+i through NewID, then sort the row.
func refRows(f *Filtered, base, rows, bound int, adj func(graph.Node) []graph.Node) ([]int64, []graph.Node) {
	ptr := make([]int64, rows+1)
	var idx []graph.Node
	for i := 0; i < rows; i++ {
		var row []graph.Node
		for _, v := range adj(f.OldID[base+i]) {
			if id := f.NewID[v]; int(id) < bound {
				row = append(row, id)
			}
		}
		slices.Sort(row)
		idx = append(idx, row...)
		ptr[i+1] = int64(len(idx))
	}
	return ptr, idx
}

func checkExtraction(f *Filtered) error {
	g := f.G
	for _, part := range []struct {
		name       string
		ptr        []int64
		idx        []graph.Node
		base, rows int
		bound      int
		adj        func(graph.Node) []graph.Node
	}{
		{"regular CSR", f.RegPtr, f.RegIdx, 0, f.NumRegular, f.NumRegular, g.OutNeighbors},
		{"seed CSR", f.SeedPtr, f.SeedIdx, f.SeedBound(), f.NumSeed, f.NumRegular, g.OutNeighbors},
		{"sink CSC", f.SinkPtr, f.SinkIdx, f.SinkBound(), f.NumSink, f.SinkBound(), g.InNeighbors},
	} {
		ptr, idx := refRows(f, part.base, part.rows, part.bound, part.adj)
		if !slices.Equal(part.ptr, ptr) || !slices.Equal(part.idx, idx) {
			return fmt.Errorf("%s differs from the sort-based reference", part.name)
		}
	}
	return f.Validate()
}

func TestExtractionMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	graphs := map[string]*graph.Graph{}
	add := func(name string, n int, edges []graph.Edge) {
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	// Skewed multigraphs with self-loops and duplicate edges; ids above
	// `live` stay isolated.
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(300)
		live := 1 + rng.Intn(n)
		edges := make([]graph.Edge, rng.Intn(10*n))
		for e := range edges {
			x, y := rng.Float64(), rng.Float64()
			edges[e] = graph.Edge{Src: graph.Node(x * x * float64(live)), Dst: graph.Node(y * y * y * float64(live))}
			if rng.Intn(8) == 0 {
				edges[e].Dst = edges[e].Src
			}
		}
		add(fmt.Sprintf("skewed%d", trial), n, edges)
	}
	// Empty classes: only regular nodes; only seeds and sinks; nothing.
	add("cycle", 5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 0}, {Src: 4, Dst: 0}})
	add("star", 6, []graph.Edge{{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 1}, {Src: 4, Dst: 5}})
	add("isolated", 7, nil)
	add("empty", 0, nil)

	for name, g := range graphs {
		for _, order := range []RegularOrder{OrderHubFirst, OrderOriginal} {
			f := FilterWithOptions(g, Options{Order: order})
			if err := checkExtraction(f); err != nil {
				t.Errorf("%s order %d: %v", name, order, err)
			}
			for old, cl := range f.Class {
				if cl > 3 {
					t.Fatalf("%s order %d: node %d left with the build-time class %d", name, order, old, cl)
				}
			}
		}
	}
}

// One row of 300k parallel edges: the hand-rolled quicksort this package
// used to carry sent every key equal to the pivot to one side and went
// quadratic on it (80k equal ids took 2 s). The extraction sorts nothing
// now; this pins that it stays linear on such a row in either order.
func TestFilterDuplicateHeavyRow(t *testing.T) {
	const dup = 300_000
	edges := make([]graph.Edge, 0, dup+3)
	for e := 0; e < dup; e++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	}
	edges = append(edges, graph.Edge{Src: 1, Dst: 0}, graph.Edge{Src: 1, Dst: 2}, graph.Edge{Src: 2, Dst: 0})
	g, err := graph.FromEdges(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, order := range []RegularOrder{OrderHubFirst, OrderOriginal} {
		f := FilterWithOptions(g, Options{Order: order})
		if err := f.Validate(); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("filtering a %d-multi-edge row took %v, want well under a second", dup, d)
	}
}
