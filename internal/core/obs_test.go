package core

import (
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/obs"
)

func skewedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 1500, M: 10000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.25, ZipfV: 1, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTracePopulatedAndConsistent(t *testing.T) {
	g := skewedTestGraph(t)
	e, err := New(g, Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.RunWithStats(algo.NewInDegree(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Trace) != res.Iterations {
		t.Fatalf("trace has %d entries, want %d", len(stats.Trace), res.Iterations)
	}
	var total int64
	for i, it := range stats.Trace {
		if it.Iter != i+1 {
			t.Errorf("trace[%d].Iter = %d, want %d", i, it.Iter, i+1)
		}
		if it.ScatterNs < 0 || it.CacheNs < 0 || it.GatherNs < 0 {
			t.Errorf("trace[%d] has negative step time: %+v", i, it)
		}
		if it.ActiveBlockRows < 0 || it.ActiveBlockRows > it.TotalBlockRows {
			t.Errorf("trace[%d] active rows %d/%d out of range", i, it.ActiveBlockRows, it.TotalBlockRows)
		}
		total += it.TotalNs()
	}
	// The traced steps cover the iteration bodies, so their sum must fit
	// inside the main phase (which also carries loop overhead).
	if total <= 0 || total > stats.MainTime.Nanoseconds() {
		t.Errorf("trace total %dns vs main phase %v", total, stats.MainTime)
	}
	if stats.Total() != stats.PreTime+stats.MainTime+stats.PostTime {
		t.Error("RunStats.Total must be the sum of the three phases")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	g := skewedTestGraph(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.RunWithStats(algo.NewInDegree(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil {
		t.Errorf("trace populated without Config.Trace: %d entries", len(stats.Trace))
	}
}

func TestCollectorRecordsEngineRun(t *testing.T) {
	g := skewedTestGraph(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.RunWithStats(algo.NewInDegree(4))
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["core.runs"]; got != 1 {
		t.Errorf("core.runs = %d, want 1", got)
	}
	if got := s.Counters["core.iterations"]; got != int64(res.Iterations) {
		t.Errorf("core.iterations = %d, want %d", got, res.Iterations)
	}
	if got := s.Histograms["core.iteration_ns"].Count; got != int64(res.Iterations) {
		t.Errorf("core.iteration_ns count = %d, want %d", got, res.Iterations)
	}
	// Preprocessing metrics recorded by New.
	if s.Histograms["core.filter_ns"].Count != 1 || s.Histograms["core.partition_ns"].Count != 1 {
		t.Error("preprocessing histograms not recorded")
	}
	if s.Counters["filter.runs"] != 1 || s.Counters["block.partitions"] != 1 {
		t.Errorf("filter/block counters missing: %v", s.Counters)
	}
	// The sub-passes that attribute setup time: one sample each per build,
	// nested inside their layer's total.
	for _, name := range []string{"filter.count_ns", "filter.fill_ns", "block.count_ns", "block.fill_ns", "block.index_ns"} {
		if s.Histograms[name].Count != 1 {
			t.Errorf("%s recorded %d times, want 1", name, s.Histograms[name].Count)
		}
	}
	if sub := s.Histograms["filter.count_ns"].Sum + s.Histograms["filter.fill_ns"].Sum; sub > s.Histograms["filter.extract_ns"].Sum {
		t.Errorf("filter count+fill %d ns exceed the extraction's %d ns", sub, s.Histograms["filter.extract_ns"].Sum)
	}
	if sub := s.Histograms["block.count_ns"].Sum + s.Histograms["block.fill_ns"].Sum + s.Histograms["block.index_ns"].Sum; sub > s.Histograms["core.partition_ns"].Sum {
		t.Errorf("block count+fill+index %d ns exceed the partition's %d ns", sub, s.Histograms["core.partition_ns"].Sum)
	}
	// Phase histograms recorded by RunWithStats; main must be within the
	// measured stats (same measurement, one sample).
	if got := s.Histograms["core.main_ns"].Sum; got != stats.MainTime.Nanoseconds() {
		t.Errorf("core.main_ns sum = %d, want %d", got, stats.MainTime.Nanoseconds())
	}
}

func TestSkippedBlocksPerRunReset(t *testing.T) {
	// Chain BFS skips blocks under activity tracking; two runs must each
	// report their own count, not a cumulative one.
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
	e, err := New(g, Config{Side: 256})
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := e.RunWithStats(algo.NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if first.SkippedBlocks == 0 {
		t.Fatal("chain BFS skipped no blocks")
	}
	_, second, err := e.RunWithStats(algo.NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if second.SkippedBlocks != first.SkippedBlocks {
		t.Errorf("second run skipped %d blocks, first %d — counter not reset per run",
			second.SkippedBlocks, first.SkippedBlocks)
	}
	if e.SkippedBlocks.Load() != second.SkippedBlocks {
		t.Errorf("engine field %d, stats %d", e.SkippedBlocks.Load(), second.SkippedBlocks)
	}
}

func TestBuildReportRoundTrip(t *testing.T) {
	g := skewedTestGraph(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.RunWithStats(algo.NewInDegree(4))
	if err != nil {
		t.Fatal(err)
	}
	r := e.BuildReport("indegree", "skewed", res, stats)
	if r.Engine != "mixen" || r.Algorithm != "indegree" || r.Graph.Name != "skewed" {
		t.Errorf("report identity wrong: %+v", r)
	}
	if r.Graph.Nodes != g.NumNodes() || r.Graph.Edges != g.NumEdges() {
		t.Errorf("graph info = %+v", r.Graph)
	}
	if r.Iterations != res.Iterations || len(r.Trace) != res.Iterations {
		t.Errorf("iterations = %d, trace = %d, want %d", r.Iterations, len(r.Trace), res.Iterations)
	}
	for _, name := range []string{"filter", "partition", "pre", "main", "post"} {
		if r.Phase(name) <= 0 {
			t.Errorf("phase %q missing or non-positive", name)
		}
	}
	if r.Phase("main") != stats.MainTime {
		t.Errorf("main phase %v, stats %v", r.Phase("main"), stats.MainTime)
	}
	if r.Config["side"] == "" || r.Config["threads"] == "" {
		t.Errorf("effective config incomplete: %v", r.Config)
	}
	if r.Metrics == nil || r.Metrics.Counters["core.runs"] != 1 {
		t.Errorf("metrics snapshot missing: %+v", r.Metrics)
	}

	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Engine != r.Engine || back.Iterations != r.Iterations ||
		len(back.Trace) != len(r.Trace) || back.Phase("main") != r.Phase("main") {
		t.Error("report JSON round trip lost data")
	}
}

func TestEffectiveConfigReflectsToggles(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2, Threads: 3, DisableCache: true, DisableActiveTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.EffectiveConfig()
	if cfg["side"] != "2" || cfg["threads"] != "3" {
		t.Errorf("config = %v", cfg)
	}
	if cfg["cache"] != "off" || cfg["active_tracking"] != "off" {
		t.Errorf("ablation toggles not reported: %v", cfg)
	}
	// Defaults must not clutter the config with off-flags.
	plain, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.EffectiveConfig()["cache"]; ok {
		t.Errorf("default config reports cache toggle: %v", plain.EffectiveConfig())
	}
}

func TestInstrumentableAfterConstruction(t *testing.T) {
	g := tiny(t)
	e, err := New(g, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	var i obs.Instrumentable = e // compile-time check
	reg := obs.NewRegistry()
	i.SetCollector(reg)
	if _, err := e.Run(algo.NewInDegree(2)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["core.runs"] != 1 || s.Counters["core.iterations"] != 2 {
		t.Errorf("late-attached collector missed the run: %v", s.Counters)
	}
	// Detach: subsequent runs must not touch the registry.
	e.SetCollector(nil)
	if _, err := e.Run(algo.NewInDegree(1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["core.runs"]; got != 1 {
		t.Errorf("detached collector still recorded: runs = %d", got)
	}
}
