package core

import (
	"fmt"
	"math"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

func layoutTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 2000, M: 16000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// exactProgs builds the order-exact program matrix of the layout identity
// sweep: integer Sum folds (in-degree) and Min folds (BFS, CC) are
// permutation-invariant bit for bit — reassociating the gather cannot
// change an integer sum or a minimum — at widths 1 and 4 (width 4 via
// vprog.Batch, the fused-serving path).
func exactProgs(t *testing.T, g *graph.Graph) []struct {
	name string
	mk   func() vprog.Program
} {
	t.Helper()
	n := g.NumNodes()
	return []struct {
		name string
		mk   func() vprog.Program
	}{
		{"indegree/w1", func() vprog.Program { return algo.NewInDegree(5) }},
		{"bfs/w1", func() vprog.Program { return algo.NewBFS(g, 3) }},
		{"cc/w1", func() vprog.Program { return algo.NewCC(g) }},
		{"indegree/w4", func() vprog.Program {
			b, err := vprog.NewBatch(n,
				algo.NewInDegree(5), algo.NewInDegree(5),
				algo.NewInDegree(5), algo.NewInDegree(5))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"bfs/w4", func() vprog.Program {
			b, err := vprog.NewBatch(n,
				algo.NewBFS(g, 0), algo.NewBFS(g, 3),
				algo.NewBFS(g, 7), algo.NewBFS(g, 11))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
}

// TestHubOrderMatchesOriginalOrder holds the one remaining layout knob to
// bit identity: hub-first (the default) and original order inside the
// regular range × dense / sparse Scatter × widths 1 and 4 must produce
// values (demuxed back to original ids by the engine's translate step),
// iteration counts and final deltas identical bit for bit — the layout only
// relocates rows inside the regular range, it must not change what any
// node computes.
func TestHubOrderMatchesOriginalOrder(t *testing.T) {
	g := layoutTestGraph(t)
	progs := exactProgs(t, g)
	for _, sparse := range []bool{false, true} {
		base := Config{Side: 128, Threads: 2, DisableSparse: !sparse}
		if sparse {
			base.SparseDensity = 0.5
		}
		hubFirst, err := New(g, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.DisableHubOrder = true
		original, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := original.EffectiveConfig()["order"]; got != "original" {
			t.Errorf("EffectiveConfig order = %q, want original", got)
		}
		if hubFirst.F.NumHub == 0 || original.F.NumHub != 0 {
			t.Fatalf("hubs: hub-first %d, original %d; want some and none", hubFirst.F.NumHub, original.F.NumHub)
		}
		for _, p := range progs {
			name := fmt.Sprintf("%s/sparse=%v", p.name, sparse)
			want, err := hubFirst.Run(p.mk())
			if err != nil {
				t.Fatalf("%s hub-first: %v", name, err)
			}
			got, err := original.Run(p.mk())
			if err != nil {
				t.Fatalf("%s original order: %v", name, err)
			}
			if got.Iterations != want.Iterations || got.Delta != want.Delta {
				t.Errorf("%s: convergence differs: original order (%d, %g) hub-first (%d, %g)",
					name, got.Iterations, got.Delta, want.Iterations, want.Delta)
			}
			if !sameValues(got.Values, want.Values) {
				t.Errorf("%s: original-order values differ from hub-first", name)
			}
		}
	}
}

// PageRank's Sum fold over arbitrary floats IS order-sensitive, so across
// the two layouts the values may differ in the last ulps — but no further.
// The tolerance check pins that the layout changes association only, not
// the computation.
func TestHubOrderPageRankWithinTolerance(t *testing.T) {
	g := layoutTestGraph(t)
	var runs [2][]float64
	for i, off := range []bool{false, true} {
		e, err := New(g, Config{Side: 128, Threads: 2, DisableHubOrder: off})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(algo.NewPageRank(g, 0.85, 0, 30))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Values
	}
	for i := range runs[0] {
		if d := math.Abs(runs[1][i] - runs[0][i]); d > 1e-12 {
			t.Fatalf("node %d pagerank drifted by %g between layouts", i, d)
		}
	}
}

// A negative side is an error, not "use the heuristic" (what
// block.NewPartition makes of it).
func TestNewRejectsNegativeSide(t *testing.T) {
	if _, err := New(layoutTestGraph(t), Config{Side: -3}); err == nil {
		t.Fatal("New accepted side -3")
	}
}

// AutoTune picks the side, so an explicit side beside it is an error
// rather than a silent winner — the rule NewFromPrebuilt applies to a side
// that conflicts with its file.
func TestAutoTuneRejectsExplicitSide(t *testing.T) {
	g := layoutTestGraph(t)
	for _, side := range []int{128, -3} {
		if _, err := New(g, Config{Side: side, Threads: 2, AutoTune: true}); err == nil {
			t.Errorf("New accepted AutoTune with side %d", side)
		}
	}
}

func TestAutoTuneSelectsCandidateSide(t *testing.T) {
	g := layoutTestGraph(t)
	e, err := New(g, Config{Threads: 2, AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Tuned) == 0 {
		t.Fatal("AutoTune ran but Tuned table is empty")
	}
	chosen := 0
	for _, tr := range e.Tuned {
		if tr.Side <= 0 || tr.Blocks <= 0 || tr.ProbeTime <= 0 {
			t.Fatalf("malformed trial %+v", tr)
		}
		if tr.Chosen {
			chosen++
			if tr.Side != e.P.Side {
				t.Fatalf("chosen trial side %d != partition side %d", tr.Side, e.P.Side)
			}
		}
	}
	if chosen != 1 {
		t.Fatalf("%d trials marked chosen, want exactly 1", chosen)
	}
	if e.Prep.TuneTime <= 0 {
		t.Fatal("TuneTime not recorded")
	}
	if got := e.EffectiveConfig()["autotune"]; got != "measured" {
		t.Fatalf("EffectiveConfig autotune = %q, want measured", got)
	}
	// Tuned results are still correct.
	want, err := New(g, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	wres, err := want.Run(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	gres, err := e.Run(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(gres.Values, wres.Values) {
		t.Fatal("auto-tuned engine values differ from default engine")
	}
}

func TestTuneCandidateSides(t *testing.T) {
	sides := CandidateSides(100_000, 4)
	if len(sides) < 4 {
		t.Fatalf("expected a real ladder for r=100k, got %v", sides)
	}
	for i := 1; i < len(sides); i++ {
		if sides[i] <= sides[i-1] {
			t.Fatalf("candidate ladder not strictly ascending: %v", sides)
		}
	}
	// Tiny regular range: the ladder collapses to at most one side >= r.
	small := CandidateSides(100, 4)
	over := 0
	for _, s := range small {
		if s >= 100 {
			over++
		}
	}
	if over > 1 {
		t.Fatalf("more than one degenerate side for r=100: %v", small)
	}
}
