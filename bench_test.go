package mixen

// Benchmark harness: one bench target per table and figure of the paper's
// evaluation (§6), plus ablation benches for the design choices DESIGN.md
// calls out. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// cmd/mixenbench produces the same experiments as formatted tables with
// measured values; these testing.B targets are the per-cell timing view.

import (
	"fmt"
	"sync"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/analyze"
	"mixen/internal/baseline"
	"mixen/internal/core"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/memmodel"
	"mixen/internal/vprog"
)

// benchShrink keeps bench graphs small enough for a single-core CI host
// while preserving every structural property the experiments exercise.
const benchShrink = 64

// benchIters is the fixed iteration count per timed Run.
const benchIters = 2

var (
	benchGraphMu sync.Mutex
	benchGraphs  = map[string]*graph.Graph{}
)

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	benchGraphMu.Lock()
	defer benchGraphMu.Unlock()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	p, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := p.Build(benchShrink)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = g
	return g
}

func benchEngine(b *testing.B, fw string, g *graph.Graph, width int) vprog.Engine {
	b.Helper()
	var (
		e   vprog.Engine
		err error
	)
	switch fw {
	case "mixen":
		e, err = core.New(g, core.Config{})
	case "blockgas":
		e, err = baseline.NewBlockGAS(g, baseline.BlockGASConfig{Width: width})
	case "push":
		e = baseline.NewPush(g, 0)
	case "polymer":
		e = baseline.NewPolymer(g, 0, 0)
	case "pull":
		e = baseline.NewPull(g, 0)
	default:
		b.Fatalf("unknown framework %q", fw)
	}
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchProgram(b *testing.B, alg string, g *graph.Graph) vprog.Program {
	b.Helper()
	switch alg {
	case "IN":
		return algo.NewInDegree(benchIters)
	case "PR":
		return algo.NewPageRank(g, 0.85, 0, benchIters)
	case "CF":
		return algo.NewCF(g, 8, benchIters)
	case "BFS":
		return algo.NewBFS(g, benchBFSSource(g))
	}
	b.Fatalf("unknown algorithm %q", alg)
	return nil
}

func benchBFSSource(g *graph.Graph) uint32 {
	var best graph.Node
	var deg int64 = -1
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(graph.Node(v)); d > deg {
			deg, best = d, graph.Node(v)
		}
	}
	return uint32(best)
}

func benchWidth(alg string) int {
	if alg == "CF" {
		return 8
	}
	return 1
}

// benchGraphNames is the full eight-dataset list of Table 2.
var benchGraphNames = []string{"weibo", "track", "wiki", "pld", "rmat", "kron", "road", "urand"}

// BenchmarkTable1 measures the connectivity analysis (classification + hub
// statistics) whose output reproduces Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := analyze.Compute(g)
				if s.N == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// BenchmarkTable2 measures the filtering pass that derives α and β
// (Table 2's computed columns).
func BenchmarkTable2(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := Filter(g)
				if f.N() != g.NumNodes() {
					b.Fatal("bad filter")
				}
			}
		})
	}
}

// BenchmarkTable3 times every framework × algorithm × graph cell of the
// headline comparison (per-Run, preprocessing excluded).
func BenchmarkTable3(b *testing.B) {
	for _, alg := range []string{"IN", "PR", "CF", "BFS"} {
		for _, fw := range []string{"mixen", "blockgas", "push", "polymer", "pull"} {
			for _, name := range benchGraphNames {
				g := benchGraph(b, name)
				b.Run(fmt.Sprintf("%s/%s/%s", alg, fw, name), func(b *testing.B) {
					e := benchEngine(b, fw, g, benchWidth(alg))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if alg == "BFS" {
							if _, err := algo.RunBFS(e, g, benchBFSSource(g)); err != nil {
								b.Fatal(err)
							}
							continue
						}
						if _, err := e.Run(benchProgram(b, alg, g)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTable4 times each framework's preprocessing (structure
// construction), reproducing Table 4.
func BenchmarkTable4(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchGraph(b, name)
		b.Run("mixen/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(g, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("gpop/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.NewBlockGAS(g, baseline.BlockGASConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("ligra/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.NewPush(g, 0)
			}
		})
		b.Run("polymer/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.NewPolymer(g, 0, 0)
			}
		})
		b.Run("graphmat/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.NewPull(g, 0)
			}
		})
	}
}

// BenchmarkFig4 times the Mixen / Block / Pull InDegree variants whose
// execution-time bars (plus modelled traffic dots) make up Figure 4.
func BenchmarkFig4(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchGraph(b, name)
		for _, fw := range []string{"mixen", "blockgas", "pull"} {
			b.Run(fw+"/"+name, func(b *testing.B) {
				e := benchEngine(b, fw, g, 1)
				prog := algo.NewInDegree(benchIters)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(prog); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5 runs the cache-simulator traces behind Figure 5's L2
// reference breakdown (wiki-like graph, scaled hierarchy).
func BenchmarkFig5(b *testing.B) {
	g := benchGraph(b, "wiki")
	n := g.NumNodes()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b.Run("pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := memmodel.ScaledHierarchy(64)
			if err != nil {
				b.Fatal(err)
			}
			memmodel.TracePull(g, ones, h)
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := memmodel.ScaledHierarchy(64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := memmodel.TraceBlockGAS(g, ones, 1024, h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mixen", func(b *testing.B) {
		e, err := core.New(g, core.Config{Side: 1024})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := memmodel.ScaledHierarchy(64)
			if err != nil {
				b.Fatal(err)
			}
			memmodel.TraceMixen(e, ones, h)
		}
	})
}

// BenchmarkFig6 sweeps the Mixen block size on InDegree (Figure 6's x-axis)
// for a skewed and a non-skewed graph.
func BenchmarkFig6(b *testing.B) {
	for _, name := range []string{"wiki", "pld", "road"} {
		g := benchGraph(b, name)
		for _, side := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
			b.Run(fmt.Sprintf("%s/side%d", name, side), func(b *testing.B) {
				e, err := core.New(g, core.Config{Side: side})
				if err != nil {
					b.Fatal(err)
				}
				prog := algo.NewInDegree(benchIters)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(prog); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7 sweeps the block size on the pld-like graph through the
// cache simulator (Figure 7's LLC/traffic series).
func BenchmarkFig7(b *testing.B) {
	g := benchGraph(b, "pld")
	n := g.NumNodes()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	for _, side := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("side%d", side), func(b *testing.B) {
			e, err := core.New(g, core.Config{Side: side})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := memmodel.ScaledHierarchy(64)
				if err != nil {
					b.Fatal(err)
				}
				memmodel.TraceMixen(e, ones, h)
			}
		})
	}
}

// benchAblation times Mixen InDegree with one design choice toggled.
func benchAblation(b *testing.B, name string, on, off core.Config) {
	g := benchGraph(b, "wiki")
	for label, cfg := range map[string]core.Config{"on": on, "off": off} {
		cfg := cfg
		b.Run(name+"/"+label, func(b *testing.B) {
			e, err := core.New(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			prog := algo.NewInDegree(benchIters)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCacheStep compares static-bin reuse against re-pushing
// seed contributions every iteration.
func BenchmarkAblationCacheStep(b *testing.B) {
	benchAblation(b, "cache", core.Config{}, core.Config{DisableCache: true})
}

// BenchmarkAblationHubOrder compares hub relocation against plain stable
// classification ordering.
func BenchmarkAblationHubOrder(b *testing.B) {
	benchAblation(b, "huborder", core.Config{}, core.Config{DisableHubOrder: true})
}

// BenchmarkAblationEdgeCompression compares compressed bins (one entry per
// source per block) against per-edge bins.
func BenchmarkAblationEdgeCompression(b *testing.B) {
	benchAblation(b, "compress", core.Config{}, core.Config{DisableCompression: true})
}

// BenchmarkAblationLoadBalance compares overloaded-block splitting against
// unsplit blocks.
func BenchmarkAblationLoadBalance(b *testing.B) {
	benchAblation(b, "loadbalance", core.Config{}, core.Config{MaxLoadFactor: -1})
}

// BenchmarkAblationActiveTracking compares the per-segment activity mask
// against full re-scatter on a sparse iteration (BFS over the road grid,
// where the frontier touches few segments per round).
func BenchmarkAblationActiveTracking(b *testing.B) {
	g := benchGraph(b, "road")
	for label, cfg := range map[string]core.Config{
		"on":  {},
		"off": {DisableActiveTracking: true},
	} {
		cfg := cfg
		b.Run("activemask/"+label, func(b *testing.B) {
			e, err := core.New(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			prog := algo.NewBFS(g, benchBFSSource(g))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreprocessFilterOnly isolates the filtering pass (the dominant
// term in Mixen's Table 4 overhead).
func BenchmarkPreprocessFilterOnly(b *testing.B) {
	g := benchGraph(b, "pld")
	for i := 0; i < b.N; i++ {
		f := Filter(g)
		if f.N() == 0 {
			b.Fatal("bad filter")
		}
	}
}
