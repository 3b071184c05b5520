package core

import (
	"fmt"
	"math"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/reorder"
	"mixen/internal/vprog"
)

func reorderTestGraph(t testing.TB) *graph.Graph {
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

// exactProgs builds the order-exact program matrix of the reorder identity
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

// TestReorderMatchesUnreorderedAllStrategies is the reorder bit-identity
// sweep of the tentpole requirement: every degree-keyed strategy × dense /
// sparse Scatter × widths 1 and 4 must produce values (demuxed back to
// original ids by the engine's translate step), iteration counts and final
// deltas identical bit for bit to the unreordered engine — the permutation
// only relocates rows inside the regular range, it must not change what
// any node computes.
func TestReorderMatchesUnreorderedAllStrategies(t *testing.T) {
	g := reorderTestGraph(t)
	progs := exactProgs(t, g)
	for _, sparse := range []bool{false, true} {
		base := Config{Side: 128, Threads: 2, DisableSparse: !sparse}
		if sparse {
			base.SparseDensity = 0.5
		}
		baseline, err := New(g, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range reorder.DegreeStrategies() {
			if s == reorder.Original {
				continue
			}
			cfg := base
			cfg.Reorder = s
			cfg.ReorderSeed = 9
			e, err := New(g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			if e.Prep.ReorderTime <= 0 {
				t.Errorf("%s: ReorderTime not recorded", s)
			}
			if got := e.EffectiveConfig()["reorder"]; got != string(s) {
				t.Errorf("%s: EffectiveConfig reorder = %q", s, got)
			}
			for _, p := range progs {
				name := fmt.Sprintf("%s/%s/sparse=%v", p.name, s, sparse)
				want, err := baseline.Run(p.mk())
				if err != nil {
					t.Fatalf("%s baseline: %v", name, err)
				}
				got, err := e.Run(p.mk())
				if err != nil {
					t.Fatalf("%s reordered: %v", name, err)
				}
				if got.Iterations != want.Iterations || got.Delta != want.Delta {
					t.Errorf("%s: convergence differs: reordered (%d, %g) baseline (%d, %g)",
						name, got.Iterations, got.Delta, want.Iterations, want.Delta)
				}
				if !sameValues(got.Values, want.Values) {
					t.Errorf("%s: reordered values differ from baseline", name)
				}
			}
		}
	}
}

// PageRank's Sum fold over arbitrary floats IS order-sensitive, so under a
// permutation the values may differ in the last ulps — but no further. The
// tolerance check pins that the reordering changes association only, not
// the computation.
func TestReorderPageRankWithinTolerance(t *testing.T) {
	g := reorderTestGraph(t)
	baseline, err := New(g, Config{Side: 128, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Run(algo.NewPageRank(g, 0.85, 0, 30))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range reorder.DegreeStrategies() {
		e, err := New(g, Config{Side: 128, Threads: 2, Reorder: s, ReorderSeed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		got, err := e.Run(algo.NewPageRank(g, 0.85, 0, 30))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for i := range want.Values {
			if d := math.Abs(got.Values[i] - want.Values[i]); d > 1e-12 {
				t.Fatalf("%s: node %d pagerank drifted by %g", s, i, d)
			}
		}
	}
}

// RCM needs adjacency and must be rejected at construction, not silently
// ignored.
func TestReorderRejectsRCM(t *testing.T) {
	g := reorderTestGraph(t)
	if _, err := New(g, Config{Reorder: reorder.RCM}); err == nil {
		t.Fatal("expected RCM rejection")
	}
	if _, err := New(g, Config{Reorder: reorder.Strategy("bogus")}); err == nil {
		t.Fatal("expected unknown-strategy rejection")
	}
}

func TestAutoTuneSelectsCandidateSide(t *testing.T) {
	g := reorderTestGraph(t)
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
	// The tuned side must flow into per-run stats.
	_, stats, err := e.RunWithStats(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TunedSide != e.P.Side {
		t.Fatalf("RunStats.TunedSide = %d, want %d", stats.TunedSide, e.P.Side)
	}
	// And tuned results are still correct.
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

// An explicit Side always wins over AutoTune: the tuner must not run.
func TestAutoTuneExplicitSideWins(t *testing.T) {
	g := reorderTestGraph(t)
	e, err := New(g, Config{Side: 128, Threads: 2, AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tuned != nil {
		t.Fatal("tuner ran despite explicit Side")
	}
	if e.P.Side != 128 {
		t.Fatalf("explicit side overridden: %d", e.P.Side)
	}
	if got := e.EffectiveConfig()["autotune"]; got != "off-explicit-side" {
		t.Fatalf("EffectiveConfig autotune = %q, want off-explicit-side", got)
	}
	_, stats, err := e.RunWithStats(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TunedSide != 0 {
		t.Fatalf("RunStats.TunedSide = %d, want 0", stats.TunedSide)
	}
}

func TestTuneCandidateSides(t *testing.T) {
	sides := tuneCandidateSides(100_000, 4)
	if len(sides) < 4 {
		t.Fatalf("expected a real ladder for r=100k, got %v", sides)
	}
	for i := 1; i < len(sides); i++ {
		if sides[i] <= sides[i-1] {
			t.Fatalf("candidate ladder not strictly ascending: %v", sides)
		}
	}
	// Tiny regular range: the ladder collapses to at most one side >= r.
	small := tuneCandidateSides(100, 4)
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
