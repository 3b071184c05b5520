package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// perNode wraps a program so that only vprog.Ranger is hidden: Checker is
// forwarded, and perNodeMin adds MinApplier back for the programs that
// declare it. Every per-node Apply call is counted.
type perNode struct {
	vprog.Program
	applies *atomic.Int64
}

func (p perNode) Apply(v uint32, sum, prev, out []float64) float64 {
	p.applies.Add(1)
	return p.Program.Apply(v, sum, prev, out)
}

func (p perNode) Check() error { return vprog.Check(p.Program) }

type perNodeMin struct{ perNode }

func (perNodeMin) MinApply() {}

// hideRange returns prog behind a perNode wrapper that counts into applies.
func hideRange(prog vprog.Program, applies *atomic.Int64) vprog.Program {
	w := perNode{prog, applies}
	if _, ok := prog.(vprog.MinApplier); ok {
		return perNodeMin{w}
	}
	return w
}

// rangedPrograms returns the width-1 programs that implement vprog.Ranger,
// with PPR and BFS from every source in srcs.
func rangedPrograms(g *graph.Graph, srcs map[string]uint32, damping, tol float64) map[string]func() vprog.Program {
	progs := map[string]func() vprog.Program{
		"indegree": func() vprog.Program { return algo.NewInDegree(4) },
		"pagerank": func() vprog.Program { return algo.NewPageRank(g, damping, tol, 60) },
		"cc":       func() vprog.Program { return algo.NewCC(g) },
	}
	for class, s := range srcs {
		progs["ppr/"+class] = func() vprog.Program { return algo.NewPersonalizedPageRank(g, s, damping, tol, 60) }
		// At tol 0 every reached node's delta stays nonzero and the deltas
		// span many magnitudes, so a fold out of node order moves the
		// delta's bits. (PageRank's deltas share one narrow exponent range
		// and sum exactly in any order.)
		progs["ppr-fixed/"+class] = func() vprog.Program { return algo.NewPersonalizedPageRank(g, s, damping, 0, 15) }
		progs["bfs/"+class] = func() vprog.Program { return algo.NewBFS(g, s) }
	}
	return progs
}

// rangeMatchesPerNode runs every program of progs on e as it is and behind
// hideRange, and fails unless the two agree in values, iteration count and
// delta bit for bit and the hidden one ran through per-node Apply.
func rangeMatchesPerNode(t *testing.T, e *Engine, name string, progs map[string]func() vprog.Program) {
	t.Helper()
	for pname, mk := range progs {
		prog := mk()
		if vprog.RangerOf(prog) == nil {
			t.Fatalf("%s: %T does not implement vprog.Ranger", pname, prog)
		}
		want, err := e.Run(prog)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, pname, err)
		}
		var applies atomic.Int64
		hidden := hideRange(mk(), &applies)
		if vprog.RangerOf(hidden) != nil {
			t.Fatalf("%s: the wrapper still exposes vprog.Ranger", pname)
		}
		if vprog.PushesMin(hidden) != vprog.PushesMin(prog) {
			t.Fatalf("%s: the wrapper changed the MinApplier declaration", pname)
		}
		got, err := e.Run(hidden)
		if err != nil {
			t.Fatalf("%s/%s hidden: %v", name, pname, err)
		}
		sameResult(t, name+"/"+pname, got, want)
		if applies.Load() == 0 {
			t.Errorf("%s/%s: the program without the range interface never ran per-node Apply", name, pname)
		}
	}
}

// TestRangeMatchesPerNode holds the range path to the per-node one: each
// ranged program and the same program behind a wrapper that hides only
// vprog.Ranger must agree bit for bit, from sources of every node class, on
// built and mapped engines, at Threads 1 and 2, with tracking on and off.
func TestRangeMatchesPerNode(t *testing.T) {
	g := frontierGraph(t, 2500, 20000, 1.3, 23)
	for _, threads := range []int{1, 2} {
		for _, track := range []bool{true, false} {
			cfg := Config{Side: 64, Threads: threads, DisableActiveTracking: !track}
			for kind, e := range servingEngines(t, g, cfg) {
				progs := rangedPrograms(g, classSources(e), 0.85, 1e-7)
				rangeMatchesPerNode(t, e, fmt.Sprintf("threads=%d/track=%v/%s", threads, track, kind), progs)
			}
		}
	}
}

// TestRangeEngineCallsNoPerNodeApply: a Sum-ring ranged program never
// reaches per-node Apply on the engine — Init, Gather-Apply and the sink
// pull all go through the range forms.
func TestRangeEngineCallsNoPerNodeApply(t *testing.T) {
	g := frontierGraph(t, 1500, 12000, 1.3, 5)
	e, err := New(g, Config{Side: 64, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var applies atomic.Int64
	prog := countingRanger{algo.NewPageRank(g, 0.85, 1e-9, 50), &applies}
	want, err := e.Run(algo.NewPageRank(g, 0.85, 1e-9, 50))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pagerank", got, want)
	if n := applies.Load(); n != 0 {
		t.Errorf("ranged PageRank made %d per-node Apply calls", n)
	}
}

// countingRanger is a PageRank that counts per-node Apply calls and keeps
// its range forms.
type countingRanger struct {
	*algo.PageRank
	applies *atomic.Int64
}

func (p countingRanger) Apply(v uint32, sum, prev, out []float64) float64 {
	p.applies.Add(1)
	return p.PageRank.Apply(v, sum, prev, out)
}

// FuzzRangeMatchesPerNode: random graphs, damping, tolerance, sources,
// thread counts and tracking, range path against per-node path.
func FuzzRangeMatchesPerNode(f *testing.F) {
	f.Add(int64(1), uint16(600), 0.85, 1e-6, uint32(3), uint8(1), true)
	f.Add(int64(9), uint16(1500), 0.5, 0.0, uint32(700), uint8(2), false)
	f.Add(int64(33), uint16(200), 0.999, 1e-2, uint32(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, damping, tol float64, src uint32, threads uint8, track bool) {
		if !(damping > 0 && damping < 1) || !(tol >= 0) || math.IsInf(tol, 1) {
			t.Skip() // programs refuse these parameters (vprog.Checker)
		}
		n := 200 + int(n16)%2000
		g, err := gen.Skewed(gen.SkewedConfig{
			N: n, M: int64(n) * 8,
			RegularFrac: 0.5, SeedFrac: 0.25, SinkFrac: 0.15,
			ZipfS: 1.2, ZipfV: 1, Seed: seed,
		})
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		e, err := New(g, Config{Side: 32, Threads: 1 + int(threads)%2, DisableActiveTracking: !track})
		if err != nil {
			t.Fatal(err)
		}
		srcs := classSources(e)
		srcs["fuzzed"] = src % uint32(n)
		rangeMatchesPerNode(t, e, "fuzz", rangedPrograms(g, srcs, damping, tol))
	})
}
