package core

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/graph"
	"mixen/internal/partio"
	"mixen/internal/vprog"
)

// servingEngines returns a built engine and a .mixp-mapped engine over g,
// both with configuration cfg: the two ways an engine serves.
func servingEngines(t *testing.T, g *graph.Graph, cfg Config) map[string]*Engine {
	t.Helper()
	built, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]float64, g.NumNodes())
	for v := range deg {
		deg[v] = float64(g.OutDegree(graph.Node(v)))
	}
	path := filepath.Join(t.TempDir(), "push.mixp")
	if err := partio.Write(path, built.F, built.P, deg, partio.Layout{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := partio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	mapped, err := NewFromPrebuilt(f.F, f.P, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Engine{"built": built, "mapped": mapped}
}

// classSources picks one original id per node class of e's filtered form:
// the top hub, a later regular node, a seed, a sink and an isolated node.
func classSources(e *Engine) map[string]uint32 {
	f := e.F
	src := map[string]uint32{}
	pick := func(name string, newID int) {
		if newID >= 0 && newID < f.N() {
			src[name] = uint32(f.OldID[newID])
		}
	}
	pick("hub", 0)
	if f.NumRegular > 1 {
		pick("regular", f.NumRegular/2)
	}
	if f.NumSeed > 0 {
		pick("seed", f.SeedBound())
	}
	if f.NumSink > 0 {
		pick("sink", f.SinkBound())
	}
	if f.NumIsolated > 0 {
		pick("isolated", f.IsolatedBound())
	}
	return src
}

// sameResult fails unless two results agree bit for bit in every value,
// the iteration count and the final delta.
func sameResult(t *testing.T, name string, got, want *vprog.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
		t.Errorf("%s: (iterations, delta) = (%d, %g), want (%d, %g)", name, got.Iterations, got.Delta, want.Iterations, want.Delta)
	}
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Errorf("%s: value %d = %g, want %g", name, i, got.Values[i], want.Values[i])
			return
		}
	}
}

// TestPushMatchesTrackingOff holds the push Gather to the always-dense
// engine with the frontier off: BFS from a source of every node class and
// CC, on built and mapped engines at Threads 1 and 2, must give the same
// values, iteration count and delta, and push must actually run.
func TestPushMatchesTrackingOff(t *testing.T) {
	g := frontierGraph(t, 3000, 24000, 1.3, 41)
	for _, threads := range []int{1, 2} {
		ref, err := New(g, Config{Side: 64, Threads: threads, DisableActiveTracking: true})
		if err != nil {
			t.Fatal(err)
		}
		var pushed int
		for kind, e := range servingEngines(t, g, Config{Side: 64, Threads: threads}) {
			progs := map[string]func() vprog.Program{
				"cc": func() vprog.Program { return algo.NewCC(g) },
			}
			for class, s := range classSources(e) {
				progs["bfs/"+class] = func() vprog.Program { return algo.NewBFS(g, s) }
			}
			for name, mk := range progs {
				want, err := ref.Run(mk())
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := e.RunWithStats(mk())
				if err != nil {
					t.Fatalf("%s/%s: %v", kind, name, err)
				}
				sameResult(t, fmt.Sprintf("threads=%d/%s/%s", threads, kind, name), got, want)
				pushed += stats.PushIterations
			}
		}
		if pushed == 0 {
			t.Errorf("threads=%d: no run gathered by push", threads)
		}
	}
}

// sumDeclared is a Sum-ring program that (wrongly) declares MinApplier.
type sumDeclared struct{ *algo.PageRank }

func (sumDeclared) MinApply() {}

// hidden wraps a program so that only the Program methods show: a BFS
// behind it does not declare MinApplier.
type hidden struct{ vprog.Program }

// TestSumRingNeverPushes: the declaration only counts on the Min ring, and
// an undeclared Min-ring program never pushes either — with the same
// answer as the declared one.
func TestSumRingNeverPushes(t *testing.T) {
	g := frontierGraph(t, 2000, 16000, 1.3, 9)
	e, err := New(g, Config{Side: 64, Threads: 1, SparseDensity: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !vprog.PushesMin(algo.NewBFS(g, 0)) || !vprog.PushesMin(algo.NewCC(g)) {
		t.Fatal("PushesMin rejects BFS")
	}
	for name, prog := range map[string]vprog.Program{
		"pagerank": sumDeclared{algo.NewPageRank(g, 0.85, 1e-9, 50)},
		"indegree": algo.NewInDegree(3),
	} {
		if vprog.PushesMin(prog) {
			t.Errorf("%s: PushesMin on a Sum-ring program", name)
		}
		if _, stats, err := e.RunWithStats(prog); err != nil {
			t.Fatal(err)
		} else if stats.PushIterations != 0 {
			t.Errorf("%s: %d push iterations on the Sum ring", name, stats.PushIterations)
		}
	}
	src := uint32(e.F.OldID[0])
	want, stats, err := e.RunWithStats(algo.NewBFS(g, src))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PushIterations == 0 {
		t.Fatal("declared BFS never pushed")
	}
	got, stats, err := e.RunWithStats(hidden{algo.NewBFS(g, src)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PushIterations != 0 {
		t.Errorf("undeclared BFS pushed %d iterations", stats.PushIterations)
	}
	sameResult(t, "undeclared bfs", got, want)
}

// TestPushTracedMatchesUntraced: the traced run takes the same iteration
// path, marks its push iterations in the timeline and counts pushed edges.
func TestPushTracedMatchesUntraced(t *testing.T) {
	g := frontierGraph(t, 2500, 20000, 1.3, 17)
	plain, err := New(g, Config{Side: 128, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(g, Config{Side: 128, Threads: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	src := uint32(plain.F.OldID[0])
	want, wantStats, err := plain.RunWithStats(algo.NewBFS(g, src))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := traced.RunWithStats(algo.NewBFS(g, src))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "traced bfs", got, want)
	if stats.PushIterations != wantStats.PushIterations || stats.GatherEdges != wantStats.GatherEdges {
		t.Errorf("traced (push, edges) = (%d, %d), untraced (%d, %d)",
			stats.PushIterations, stats.GatherEdges, wantStats.PushIterations, wantStats.GatherEdges)
	}
	var push int
	var edges int64
	for _, it := range stats.Trace {
		if it.Push {
			push++
		}
		edges += it.GatherEdges
	}
	if push != stats.PushIterations || push == 0 {
		t.Errorf("timeline marks %d push iterations, stats %d", push, stats.PushIterations)
	}
	if edges != stats.GatherEdges {
		t.Errorf("timeline gathers %d edges, stats %d", edges, stats.GatherEdges)
	}
	if stats.GatherEdges >= int64(stats.MainIterations)*traced.P.Nnz {
		t.Errorf("push gathered %d edges, the dense sweep %d", stats.GatherEdges, int64(stats.MainIterations)*traced.P.Nnz)
	}
}
