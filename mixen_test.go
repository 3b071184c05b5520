package mixen

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := GenerateRMAT(10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := PageRank(g, 0.85, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumNodes() {
		t.Fatalf("ranks len %d, want %d", len(ranks), g.NumNodes())
	}
	var sum float64
	for _, r := range ranks {
		if r < 0 || math.IsNaN(r) {
			t.Fatal("invalid rank")
		}
		sum += r
	}
	if sum <= 0 {
		t.Fatal("ranks must be positive in aggregate")
	}
}

func TestDatasetNames(t *testing.T) {
	names := Datasets()
	if len(names) != 8 || names[0] != "weibo" || names[7] != "urand" {
		t.Fatalf("datasets = %v", names)
	}
	g, err := Dataset("wiki", 256)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := Dataset("nope", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestNewEngineNames(t *testing.T) {
	g, err := GenerateUniform(256, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mixen", "pull", "push", "polymer", "blockgas"} {
		e, err := NewEngine(name, g, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("engine name %q, want %q", e.Name(), name)
		}
		res, err := e.Run(NewInDegreeProgram(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Values) != 256 {
			t.Fatalf("%s: values len %d", name, len(res.Values))
		}
	}
	if _, err := NewEngine("bogus", g, 0, 1); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}

func TestInDegreeHelperMatchesDegrees(t *testing.T) {
	g, err := FromEdges(4, []Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 3, Dst: 2}, {Src: 2, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := InDegree(g)
	if err != nil {
		t.Fatal(err)
	}
	if scores[2] != 3 || scores[0] != 1 {
		t.Fatalf("scores = %v", scores)
	}
}

func TestBFSHelper(t *testing.T) {
	g, err := GenerateRoad(8, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// On a full grid, node (7,7) is 14 hops from (0,0).
	if levels[63] != 14 {
		t.Fatalf("level[63] = %v, want 14", levels[63])
	}
}

func TestCollaborativeFilterHelper(t *testing.T) {
	g, err := Dataset("track", 512)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := CollaborativeFilter(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != g.NumNodes()*4 {
		t.Fatalf("vals len %d, want %d", len(vals), g.NumNodes()*4)
	}
}

func TestConnectedComponentsHelper(t *testing.T) {
	g, err := FromEdges(5, []Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ConnectedComponents(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 2, 3, 3}
	for v, w := range want {
		if labels[v] != w {
			t.Fatalf("label[%d] = %v, want %v", v, labels[v], w)
		}
	}
}

func TestTrianglesAndKCoreHelpers(t *testing.T) {
	// Triangle plus pendant.
	g, err := FromEdges(4, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 1},
		{Src: 0, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := CountTriangles(g); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
	core := KCore(g)
	want := []int32{2, 2, 2, 1}
	for v, w := range want {
		if core[v] != w {
			t.Fatalf("core[%d] = %d, want %d", v, core[v], w)
		}
	}
}

func TestShortestPathHelpers(t *testing.T) {
	w, err := WeightedFromEdges(3, []WeightedEdge{
		{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}, {Src: 0, Dst: 2, W: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() ([]float64, error){
		"delta":    func() ([]float64, error) { return ShortestPaths(w, 0) },
		"bellman":  func() ([]float64, error) { return ShortestPathsBellmanFord(w, 0, 2) },
		"dijkstra": func() ([]float64, error) { return ShortestPathsDijkstra(w, 0) },
	} {
		dist, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dist[0] != 0 || dist[1] != 2 || dist[2] != 5 {
			t.Fatalf("%s: dist = %v", name, dist)
		}
	}
}

func TestRandomWeightsHelper(t *testing.T) {
	g, err := GenerateRoad(5, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := RandomWeights(g, 1, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != g.NumEdges() {
		t.Fatal("weighting changed the edge count")
	}
}

func TestDegreeDistributionHelpers(t *testing.T) {
	g, err := Dataset("rmat", 512)
	if err != nil {
		t.Fatal(err)
	}
	in := InDegreeDistribution(g)
	out := OutDegreeDistribution(g)
	if in.Mean != out.Mean {
		t.Fatal("in and out mean degree must both equal m/n")
	}
	if ApproxDiameter(g, 0) < 1 {
		t.Fatal("rmat diameter must be at least 1")
	}
}

// The helpers reject arguments outside the programs' domain instead of
// returning NaN, a diverged vector, or a run cut short with a nil error.
func TestHelpersRejectInvalidArgs(t *testing.T) {
	g, err := GenerateRMAT(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := uint32(g.NumNodes() + 5)
	pr := func(damping, tol float64) func() error {
		return func() error { _, err := PageRank(g, damping, tol, 50); return err }
	}
	for name, call := range map[string]func() error{
		"damping NaN":  pr(math.NaN(), 1e-9),
		"damping 1.5":  pr(1.5, 1e-9),
		"damping -0.2": pr(-0.2, 1e-9),
		"damping 0":    pr(0, 1e-9),
		"damping 1":    pr(1, 1e-9),
		"tol NaN":      pr(0.85, math.NaN()),
		"tol -1":       pr(0.85, -1),
		"tol +Inf":     pr(0.85, math.Inf(1)),
		"PageRankCtx tol -Inf": func() error {
			_, err := PageRankCtx(ctx, g, 0.85, math.Inf(-1), 50)
			return err
		},
		"PersonalizedPageRanks source": func() error {
			_, err := PersonalizedPageRanks(g, []uint32{0, bad}, 0.85, 1e-9, 50)
			return err
		},
		"PersonalizedPageRanks damping": func() error {
			_, err := PersonalizedPageRanks(g, []uint32{0}, 1.5, 1e-9, 50)
			return err
		},
		"PersonalizedPageRanksCtx source": func() error {
			_, err := PersonalizedPageRanksCtx(ctx, g, []uint32{bad}, 0.85, 1e-9, 50)
			return err
		},
		"BFS source":            func() error { _, err := BFS(g, bad); return err },
		"BFS source n":          func() error { _, err := BFS(g, uint32(g.NumNodes())); return err },
		"BFSCtx source":         func() error { _, err := BFSCtx(ctx, g, bad); return err },
		"MultiSourceBFS source": func() error { _, err := MultiSourceBFS(g, []uint32{1, bad}); return err },
	} {
		if call() == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
	// The boundaries that stay valid: tol 0 runs to maxIter, the last node
	// is a source.
	last := uint32(g.NumNodes() - 1)
	for name, call := range map[string]func() error{
		"tol 0":      pr(0.85, 0),
		"BFS last":   func() error { _, err := BFS(g, last); return err },
		"PPR last":   func() error { _, err := PersonalizedPageRanks(g, []uint32{last}, 0.5, 0, 5); return err },
		"multi last": func() error { _, err := MultiSourceBFS(g, []uint32{0, last}); return err },
	} {
		if err := call(); err != nil {
			t.Errorf("%s: %v, want ok", name, err)
		}
	}
}

func TestLabelPropagationHelper(t *testing.T) {
	g, err := FromEdges(4, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels, rounds := LabelPropagation(g, 10)
	if rounds == 0 {
		t.Fatal("LPA must iterate")
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Fatalf("labels = %v, want two pairs", labels)
	}
}

func TestHITSAndSALSAHelpers(t *testing.T) {
	g, err := Dataset("wiki", 512)
	if err != nil {
		t.Fatal(err)
	}
	a, h := HITS(g, 10, 1e-9)
	if len(a) != g.NumNodes() || len(h) != g.NumNodes() {
		t.Fatal("HITS output lengths wrong")
	}
	a2, h2 := SALSA(g, 10, 1e-9)
	if len(a2) != g.NumNodes() || len(h2) != g.NumNodes() {
		t.Fatal("SALSA output lengths wrong")
	}
}

func TestAnalyzeAndFilterExports(t *testing.T) {
	g, err := Dataset("pld", 512)
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(g)
	if s.N != g.NumNodes() {
		t.Fatal("stats node count mismatch")
	}
	f := Filter(g)
	if f.N() != g.NumNodes() {
		t.Fatal("filtered node count mismatch")
	}
	if math.Abs(f.Alpha()-s.Alpha) > 1e-12 {
		t.Fatal("alpha disagreement between Analyze and Filter")
	}
}

func TestEdgeListRoundTripThroughFacade(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
}

// PageRank's top nodes on a skewed dataset must be hubs (sanity check that
// the whole pipeline ranks sensibly end-to-end).
func TestPageRankTopNodesAreHubs(t *testing.T) {
	g, err := Dataset("wiki", 256)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := PageRank(g, 0.85, 1e-10, 300)
	if err != nil {
		t.Fatal(err)
	}
	type nd struct {
		v    int
		rank float64
	}
	nodes := make([]nd, len(ranks))
	for v, r := range ranks {
		nodes[v] = nd{v, r}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].rank > nodes[j].rank })
	avg := g.AvgDegree()
	for i := 0; i < 5 && i < len(nodes); i++ {
		if float64(g.InDegree(Node(nodes[i].v))) <= avg {
			t.Fatalf("top-%d node %d is not a hub (in-degree %d, avg %.1f)",
				i, nodes[i].v, g.InDegree(Node(nodes[i].v)), avg)
		}
	}
}
