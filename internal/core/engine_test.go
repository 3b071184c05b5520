package core

import (
	"math"
	"testing"
	"time"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// tiny graph: 0->1, 0->2, 1->2, 2->0, 3->2, 5->4
// in-degrees: 0:1 1:1 2:3 3:0 4:1 5:0
func tiny(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 2}, {Src: 5, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInDegreeOneIteration(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	// After one SpMV with x0=1: receivers hold their in-degree; zero
	// in-degree nodes (3, 5) keep 1.
	want := []float64{1, 1, 3, 1, 1, 1}
	for v, w := range want {
		if got := res.Values[v]; got != w {
			t.Errorf("node %d = %v, want %v", v, got, w)
		}
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestInDegreeTwoIterations(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	// x1 = [1,1,3,1,1,1]; x2[v] = Σ_{u→v} x1[u]:
	// x2[0] = x1[2] = 3; x2[1] = x1[0] = 1; x2[2] = x1[0]+x1[1]+x1[3] = 3;
	// x2[4] = x1[5] = 1; seeds 3,5 keep 1.
	want := []float64{3, 1, 3, 1, 1, 1}
	for v, w := range want {
		if got := res.Values[v]; got != w {
			t.Errorf("node %d = %v, want %v", v, got, w)
		}
	}
}

func TestSinkUsesFinalValues(t *testing.T) {
	// Chain 0 -> 1 -> 2 where 2 is a sink. After T iterations the Mixen
	// post-phase must compute the sink from the FINAL value of node 1.
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 1, Dst: 0}, {Src: 0, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{Side: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	// Regular subgraph {0,1}: x0=[1,1]; x1=[2,1]; x2=[3,2]; x3=[5,3].
	// Sink 2 = final x[1] = 3.
	if res.Values[0] != 5 || res.Values[1] != 3 {
		t.Fatalf("regular values = %v, want [5 3 _]", res.Values)
	}
	if res.Values[2] != 3 {
		t.Fatalf("sink value = %v, want 3 (from final x[1])", res.Values[2])
	}
}

func TestPageRankConvergesAndRanksHub(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 2000, M: 16000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pr := algo.NewPageRank(g, 0.85, 1e-10, 500)
	res, err := e.Run(pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 500 {
		t.Fatalf("pagerank did not converge in %d iterations", res.Iterations)
	}
	// The max in-degree node should outrank the min in-degree receiver.
	var hub, low graph.Node
	var hubDeg, lowDeg int64 = -1, 1 << 62
	for v := 0; v < g.NumNodes(); v++ {
		d := g.InDegree(graph.Node(v))
		if d > hubDeg {
			hubDeg, hub = d, graph.Node(v)
		}
		if d > 0 && d < lowDeg {
			lowDeg, low = d, graph.Node(v)
		}
	}
	if res.Values[hub] <= res.Values[low] {
		t.Fatalf("hub rank %v <= low-degree rank %v", res.Values[hub], res.Values[low])
	}
	for v, val := range res.Values {
		if math.IsNaN(val) || val < 0 {
			t.Fatalf("node %d has invalid rank %v", v, val)
		}
	}
}

func TestBFSLevelsTiny(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	want := []float64{0, 1, 1, inf, inf, inf}
	for v, w := range want {
		if res.Values[v] != w {
			t.Errorf("level[%d] = %v, want %v", v, res.Values[v], w)
		}
	}
}

func TestBFSFromSeedReachesSink(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Source 5 is a seed; 4 is a sink reachable in one hop.
	res, err := e.Run(algo.NewBFS(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[5] != 0 || res.Values[4] != 1 {
		t.Fatalf("levels = %v, want level(5)=0 level(4)=1", res.Values)
	}
	inf := math.Inf(1)
	for _, v := range []int{0, 1, 2, 3} {
		if res.Values[v] != inf {
			t.Errorf("level[%d] = %v, want +Inf", v, res.Values[v])
		}
	}
}

func TestCFWidthLanes(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	cf := algo.NewCF(g, 4, 3)
	res, err := e.Run(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 6*4 {
		t.Fatalf("values len = %d, want 24", len(res.Values))
	}
	for i, v := range res.Values {
		if math.IsNaN(v) {
			t.Fatalf("lane %d is NaN", i)
		}
	}
	// Seeds (3, 5) must keep their initial latent vectors.
	var init [4]float64
	cf.Init(3, init[:])
	for l := 0; l < 4; l++ {
		if res.Values[3*4+l] != init[l] {
			t.Fatalf("seed 3 lane %d changed: %v vs %v", l, res.Values[3*4+l], init[l])
		}
	}
}

func TestAblationConfigsStayCorrect(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 800, M: 6000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.25, ZipfV: 1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(g, Config{Side: 64})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"no-cache":       {Side: 64, DisableCache: true},
		"no-compression": {Side: 64, DisableCompression: true},
		"no-huborder":    {Side: 64, DisableHubOrder: true},
		"no-splitting":   {Side: 64, MaxLoadFactor: -1},
		"small-blocks":   {Side: 16},
		"one-block":      {Side: 1 << 20},
	}
	for name, cfg := range configs {
		e, err := New(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := e.Run(algo.NewInDegree(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range want.Values {
			if !relClose(got.Values[v], want.Values[v], 1e-9) {
				t.Fatalf("%s: node %d = %v, want %v", name, v, got.Values[v], want.Values[v])
			}
		}
	}
}

func TestActiveTrackingSkipsAndStaysCorrect(t *testing.T) {
	// A long bidirected chain: the BFS frontier touches one segment at a
	// time, so most block-rows must be skipped once tracking kicks in.
	n := 4096
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges,
			graph.Edge{Src: graph.Node(i), Dst: graph.Node(i + 1)},
			graph.Edge{Src: graph.Node(i + 1), Dst: graph.Node(i)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	tracked, err := New(g, Config{Side: 256})
	if err != nil {
		t.Fatal(err)
	}
	resT, err := tracked.Run(algo.NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tracked.SkippedBlocks.Load() == 0 {
		t.Fatal("activity mask never skipped a block on a chain BFS")
	}
	untracked, err := New(g, Config{Side: 256, DisableActiveTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	resU, err := untracked.Run(algo.NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if untracked.SkippedBlocks.Load() != 0 {
		t.Fatal("tracking disabled but blocks were skipped")
	}
	for v := range resT.Values {
		if resT.Values[v] != resU.Values[v] {
			t.Fatalf("node %d: tracked %v, untracked %v", v, resT.Values[v], resU.Values[v])
		}
	}
	// On the chain, levels are exactly the node index.
	if resT.Values[100] != 100 || resT.Values[n-1] != float64(n-1) {
		t.Fatalf("chain levels wrong: %v, %v", resT.Values[100], resT.Values[n-1])
	}
}

func TestActiveTrackingSumRing(t *testing.T) {
	// PageRank with convergence: once segments stop changing they must be
	// skipped without altering the fixed point.
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 2000, M: 12000,
		RegularFrac: 0.5, SeedFrac: 0.3, SinkFrac: 0.15,
		ZipfS: 1.25, ZipfV: 1, Seed: 52,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(g, Config{Side: 64})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Run(algo.NewPageRank(g, 0.85, 1e-12, 500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, Config{Side: 64, DisableActiveTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Run(algo.NewPageRank(g, 0.85, 1e-12, 500))
	if err != nil {
		t.Fatal(err)
	}
	for v := range resA.Values {
		if !relClose(resA.Values[v], resB.Values[v], 1e-9) {
			t.Fatalf("node %d: tracked %v, untracked %v", v, resA.Values[v], resB.Values[v])
		}
	}
}

func TestEngineEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatal("empty graph must yield empty values")
	}
}

func TestEngineAllIsolated(t *testing.T) {
	g, err := graph.FromEdges(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range res.Values {
		if val != 1 {
			t.Fatalf("isolated node %d = %v, want 1 (init)", v, val)
		}
	}
}

func TestEngineRejectsZeroWidth(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&badWidthProg{}); err == nil {
		t.Fatal("expected error for width 0")
	}
}

type badWidthProg struct{ algo.InDegree }

func (*badWidthProg) Width() int { return 0 }

func TestDeterministicAcrossRuns(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(9, 8, 31))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Run(algo.NewPageRank(g, 0.85, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(algo.NewPageRank(g, 0.85, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Values {
		if a.Values[v] != b.Values[v] {
			t.Fatalf("node %d differs across identical runs", v)
		}
	}
}

func TestRunWithStatsPhases(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 1500, M: 10000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.25, ZipfV: 1, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.RunWithStats(algo.NewInDegree(4))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MainIterations != res.Iterations || res.Iterations != 4 {
		t.Fatalf("iterations: stats %d, result %d", stats.MainIterations, res.Iterations)
	}
	if stats.PreTime <= 0 || stats.MainTime <= 0 || stats.PostTime <= 0 {
		t.Fatalf("phase timings must be positive: %+v", stats)
	}
	// Main-Phase dominates on an iterative run.
	if stats.MainTime < stats.PostTime {
		t.Fatalf("main %v < post %v on a 4-iteration run", stats.MainTime, stats.PostTime)
	}
}

// slowInit burns a known time inside Init (on one node, so the total does
// not depend on the thread count).
type slowInit struct {
	vprog.Program
	burn time.Duration
}

func (p slowInit) Init(v uint32, out []float64) {
	if v == 0 {
		time.Sleep(p.burn)
	}
	p.Program.Init(v, out)
}

// TestPreTimeCoversInit: the phases sum to the run, so time spent in the
// program's Init is booked to the Pre-Phase (one-sided: PreTime may be
// larger, never smaller).
func TestPreTimeCoversInit(t *testing.T) {
	e, err := New(skewedForConcurrency(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const burn = 25 * time.Millisecond
	_, stats, err := e.RunWithStats(slowInit{algo.NewInDegree(2), burn})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PreTime < burn {
		t.Fatalf("PreTime %v does not cover the %v spent in Init", stats.PreTime, burn)
	}
}

func TestEngineReuseAcrossWidths(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Scalar run, then a CF run (width 4), then scalar again: the bins must
	// resize transparently and results stay correct.
	first, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(algo.NewCF(g, 4, 2)); err != nil {
		t.Fatal(err)
	}
	again, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	for v := range first.Values {
		if first.Values[v] != again.Values[v] {
			t.Fatalf("node %d changed after width round trip", v)
		}
	}
}

func TestPrepStatsPopulated(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(10, 8, 33))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Prep.Total() <= 0 {
		t.Fatal("preprocessing time must be positive")
	}
	if e.Prep.Total() != e.Prep.FilterTime+e.Prep.PartitionTime {
		t.Fatal("total must be the sum of phases")
	}
}

func TestTrafficModelsPositive(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.TrafficPerIteration() <= 0 {
		t.Fatal("traffic model must be positive for a non-empty graph")
	}
	if e.RandomAccessesPerIteration() <= 0 {
		t.Fatal("random access model must be positive")
	}
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return d <= tol*scale
}
