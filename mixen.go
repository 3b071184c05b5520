// Package mixen is a Go implementation of Mixen, the connectivity-aware
// link-analysis framework for skewed graphs of Chen & Chung (ICPP 2023),
// together with the four baseline engines the paper compares against and
// the full evaluation harness.
//
// The pipeline: build or load a directed graph, preprocess it with New
// (connectivity filtering + 2-D cache blocking), then run link-analysis
// programs on the resulting engine. One-shot helpers (PageRank, InDegree,
// BFS, CollaborativeFilter) cover the common cases:
//
//	g, _ := mixen.GenerateRMAT(20, 16, 42)
//	ranks, _ := mixen.PageRank(g, 0.85, 1e-9, 100)
//
// or, reusing one preprocessed engine for several algorithms:
//
//	eng, _ := mixen.New(g, mixen.Config{})
//	res, _ := eng.Run(mixen.NewPageRankProgram(g, 0.85, 1e-9, 100))
//
// Baseline engines with identical semantics are available through
// NewEngine("pull"|"push"|"polymer"|"blockgas", g) for comparative studies.
//
// # Concurrent serving
//
// Engines are immutable after construction: the filtered form and the 2-D
// partition are read-only, and every run works in a private workspace
// drawn from a per-engine pool. One preprocessed engine can therefore
// serve many goroutines at once — the pattern for query serving:
//
//	eng, _ := mixen.New(g, mixen.Config{})
//	for i := 0; i < workers; i++ {
//		go func() {
//			res, _ := eng.Run(mixen.NewPageRankProgram(g, 0.85, 1e-9, 100))
//			serve(res)
//		}()
//	}
//
// Latency-sensitive callers can pin a Workspace per goroutine with
// NewWorkspace/RunInWorkspace for a zero-allocation steady state.
package mixen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"mixen/internal/algo"
	"mixen/internal/analyze"
	"mixen/internal/baseline"
	"mixen/internal/core"
	"mixen/internal/filter"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Graph is a directed graph in dual CSR/CSC form. See FromEdges,
// ReadEdgeList, ReadBinary and the Generate* helpers for construction.
type Graph = graph.Graph

// Edge is a directed link.
type Edge = graph.Edge

// Node is a dense node identifier.
type Node = graph.Node

// Program is the vertex-program contract all engines run.
type Program = vprog.Program

// Result is an engine run's outcome.
type Result = vprog.Result

// Engine is the interface shared by Mixen and the baselines.
type Engine = vprog.Engine

// Config tunes the Mixen engine (block side or the measured block-side
// auto-tuner Config.AutoTune, threads, and the ablation toggles, among
// them DisableHubOrder, the one layout choice inside the regular range).
type Config = core.Config

// Stats summarizes a graph's connectivity structure (Tables 1-2).
type Stats = analyze.Stats

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a whitespace-separated text edge list.
func ReadEdgeList(r io.Reader, minNodes int) (*Graph, error) {
	return graph.ReadEdgeList(r, minNodes)
}

// ReadBinary loads a graph in the CSR binary format.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// GenerateRMAT builds a directed power-law graph (GAP parameters) with
// 2^scale nodes and edgeFactor·2^scale edges.
func GenerateRMAT(scale, edgeFactor int, seed int64) (*Graph, error) {
	return gen.RMAT(gen.GAPRMATConfig(scale, edgeFactor, seed))
}

// GenerateKronecker builds an undirected Graph500-style Kronecker graph.
func GenerateKronecker(scale, edgeFactor int, seed int64) (*Graph, error) {
	return gen.Kronecker(scale, edgeFactor, seed)
}

// GenerateUniform builds an undirected uniform-random graph with n nodes
// and m directed edges.
func GenerateUniform(n int, m int64, seed int64) (*Graph, error) {
	return gen.URand(n, m, seed)
}

// GenerateRoad builds a road-like bidirected grid.
func GenerateRoad(rows, cols int, drop float64, seed int64) (*Graph, error) {
	return gen.Road(gen.RoadConfig{Rows: rows, Cols: cols, Drop: drop, Seed: seed})
}

// GenerateSmallWorld builds a Watts–Strogatz small-world graph (ring
// lattice with degree 2k, rewiring probability beta).
func GenerateSmallWorld(n, k int, beta float64, seed int64) (*Graph, error) {
	return gen.SmallWorld(n, k, beta, seed)
}

// SkewedConfig parameterizes the synthetic skewed-crawl generator.
type SkewedConfig = gen.SkewedConfig

// GenerateSkewed builds a skewed graph with an exact node-class mix.
func GenerateSkewed(cfg SkewedConfig) (*Graph, error) { return gen.Skewed(cfg) }

// Dataset builds one of the paper's eight dataset stand-ins ("weibo",
// "track", "wiki", "pld", "rmat", "kron", "road", "urand") at 1/shrink of
// laptop scale.
func Dataset(name string, shrink int) (*Graph, error) {
	p, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.Build(shrink)
}

// Datasets lists the preset names in the paper's order.
func Datasets() []string {
	var out []string
	for _, p := range gen.Presets() {
		out = append(out, p.Name)
	}
	return out
}

// Analyze computes connectivity statistics (hub share, node classes, α, β).
func Analyze(g *Graph) Stats { return analyze.Compute(g) }

// DegreeDistribution summarizes a degree histogram.
type DegreeDistribution = analyze.DegreeHistogram

// InDegreeDistribution computes the in-degree histogram with summary
// statistics (mean, median, p99, Gini, power-law fit).
func InDegreeDistribution(g *Graph) *DegreeDistribution { return analyze.InDegreeHistogram(g) }

// OutDegreeDistribution computes the out-degree histogram.
func OutDegreeDistribution(g *Graph) *DegreeDistribution { return analyze.OutDegreeHistogram(g) }

// ApproxDiameter estimates the directed diameter by double-sweep BFS.
func ApproxDiameter(g *Graph, start Node) int { return analyze.ApproxDiameter(g, start) }

// MixenEngine is the preprocessed Mixen instance. It is immutable after
// New: Run and RunWithStats are safe for concurrent callers on one shared
// engine (each run executes in its own pooled Workspace).
type MixenEngine = core.Engine

// Workspace owns the mutable per-run state of one MixenEngine run. Runs
// acquire workspaces from a pool transparently; hold one explicitly via
// MixenEngine.NewWorkspace and run with MixenEngine.RunInWorkspace to
// reuse it across runs for a zero-allocation steady state. A Workspace
// serves one run at a time.
type Workspace = core.Workspace

// New preprocesses g with Mixen's filtering and blocking. The blocked
// layout keeps destination ids in 31 bits, so New returns an error for a
// graph with more than 2³¹ regular nodes.
func New(g *Graph, cfg Config) (*MixenEngine, error) { return core.New(g, cfg) }

// NewEngine constructs a named engine over g: "mixen", "pull"
// (GraphMat-like), "push" (Ligra-like), "polymer" (Polymer-like) or
// "blockgas" (GPOP-like). width is the property lane count (1 unless
// running CollaborativeFilter programs).
func NewEngine(name string, g *Graph, threads, width int) (Engine, error) {
	switch name {
	case "mixen":
		return core.New(g, core.Config{Threads: threads})
	case "pull":
		return baseline.NewPull(g, threads), nil
	case "push":
		return baseline.NewPush(g, threads), nil
	case "polymer":
		return baseline.NewPolymer(g, threads, 0), nil
	case "blockgas":
		return baseline.NewBlockGAS(g, baseline.BlockGASConfig{Threads: threads, Width: width})
	default:
		return nil, fmt.Errorf("mixen: unknown engine %q", name)
	}
}

// NewInDegreeProgram returns the iterated InDegree/SpMV program.
func NewInDegreeProgram(iters int) Program { return algo.NewInDegree(iters) }

// NewPageRankProgram returns the damped PageRank program.
func NewPageRankProgram(g *Graph, damping, tol float64, maxIter int) Program {
	return algo.NewPageRank(g, damping, tol, maxIter)
}

// NewCFProgram returns the K-lane collaborative-filtering program.
func NewCFProgram(g *Graph, k, iters int) Program { return algo.NewCF(g, k, iters) }

// NewBFSProgram returns the tropical-ring BFS program.
func NewBFSProgram(g *Graph, source uint32) Program { return algo.NewBFS(g, source) }

// NewPersonalizedPageRankProgram returns damped PageRank with a point-mass
// teleport at source — the canonical batchable query. tol <= 0 disables
// the convergence test (fixed maxIter iterations).
func NewPersonalizedPageRankProgram(g *Graph, source uint32, damping, tol float64, maxIter int) Program {
	return algo.NewPersonalizedPageRank(g, source, damping, tol, maxIter)
}

// OutDegrees snapshots every node's out-degree. Serving paths that build
// many programs over one long-lived graph should take the snapshot once
// and pass it to the *Shared program constructors, instead of paying an
// O(n) degree pass per request.
func OutDegrees(g *Graph) []float64 { return algo.OutDegrees(g) }

// NewPageRankProgramShared is NewPageRankProgram with a caller-provided
// out-degree snapshot (from OutDegrees) over a graph of n nodes. The
// snapshot is shared, not copied — treat it as immutable.
func NewPageRankProgramShared(n int, deg []float64, damping, tol float64, maxIter int) Program {
	return algo.NewPageRankShared(n, deg, damping, tol, maxIter)
}

// NewPersonalizedPageRankProgramShared is NewPersonalizedPageRankProgram
// with a caller-provided out-degree snapshot (from OutDegrees), for
// serving paths that build one program per request.
func NewPersonalizedPageRankProgramShared(n int, deg []float64, source uint32, damping, tol float64, maxIter int) Program {
	return algo.NewPersonalizedPageRankShared(n, deg, source, damping, tol, maxIter)
}

// BatchProgram fuses K independent same-ring programs into one width-ΣWᵢ
// program with per-lane convergence tracking; Split demuxes the fused
// result. See NewBatchProgram.
type BatchProgram = vprog.Batch

// NewBatchProgram fuses progs (same ring, same per-node Scale) into one
// wide program over a graph of n nodes: the engine streams the topology
// ONCE for all K queries. Run the result on any engine, then call Split
// on the fused Result to get one Result per query, each bit-identical to
// the query run alone.
func NewBatchProgram(n int, progs ...Program) (*BatchProgram, error) {
	return vprog.NewBatch(n, progs...)
}

// Batcher runs submitted queries on the Mixen engine, fusing the ones that
// meet into one wide pass. It is work-conserving: a query that finds a run
// slot free — a lone query always does — is dispatched at once and run as
// Engine.Run would run it; queries queue only behind in-flight runs, and
// a finishing run takes up to MaxBatch of what queued behind it as ONE
// fused pass. Submit/SubmitCtx hand in one query; SubmitAllCtx hands in
// the lanes of one logical request together, so that on an idle Batcher
// they leave as one fused run. See core.Batcher.
type Batcher = core.Batcher

// BatcherConfig tunes a Batcher: MaxBatch, the most queries fused into one
// run (default 16); MaxWait, the longest a query may queue while every run
// slot is busy (default 500µs; <= 0 never queues) — not a window a query
// waits out for companions; and the per-query property width (default 1).
type BatcherConfig = core.BatcherConfig

// Future is a pending batched query; Wait returns its own result.
type Future = core.Future

// NewBatcher wraps a Mixen engine for batched serving.
func NewBatcher(e *MixenEngine, cfg BatcherConfig) *Batcher { return core.NewBatcher(e, cfg) }

// PersonalizedPageRanks answers one personalized-PageRank query per source
// in a single fused width-K pass on Mixen, returning one value slice per
// source. Each slice is bit-identical to running that query alone.
func PersonalizedPageRanks(g *Graph, sources []uint32, damping, tol float64, maxIter int) ([][]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Sources: sources, Rank: true, Damping: damping, Tol: tol}).Check(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	results, err := algo.PersonalizedPageRankBatch(e, g, sources, damping, tol, maxIter)
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(results))
	for i, r := range results {
		vals[i] = r.Values
	}
	return vals, nil
}

// MultiSourceBFS answers one BFS reachability query per source in a single
// fused width-K pass on Mixen, returning per-node hop counts per source
// (+Inf when unreachable).
func MultiSourceBFS(g *Graph, sources []uint32) ([][]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Sources: sources}).Check(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	results, err := algo.MultiSourceBFS(e, g, sources)
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(results))
	for i, r := range results {
		vals[i] = r.Values
	}
	return vals, nil
}

// ContextRunner is implemented by engines whose runs observe a context
// cooperatively (cancellation and deadlines checked at iteration and
// phase boundaries). MixenEngine implements it; the baselines do not.
type ContextRunner = vprog.ContextRunner

// RunCtx executes prog on e under ctx: cancellation and deadlines are
// honoured cooperatively when e is a ContextRunner (the Mixen engine
// returns ctx.Err() within one iteration of cancellation), and checked at
// entry only otherwise.
func RunCtx(ctx context.Context, e Engine, prog Program) (*Result, error) {
	return vprog.RunCtx(ctx, e, prog)
}

// PageRankCtx is PageRank under a context: preprocessing is checked at
// entry and the power iteration is cancelled cooperatively at iteration
// boundaries, returning ctx.Err().
func PageRankCtx(ctx context.Context, g *Graph, damping, tol float64, maxIter int) ([]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Rank: true, Damping: damping, Tol: tol}).Check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	res, err := e.RunCtx(ctx, algo.NewPageRank(g, damping, tol, maxIter))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// BFSCtx is BFS under a context (cooperative cancellation at iteration
// boundaries).
func BFSCtx(ctx context.Context, g *Graph, source uint32) ([]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Sources: []uint32{source}}).Check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	res, err := e.RunCtx(ctx, algo.NewBFS(g, source))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// PersonalizedPageRanksCtx is PersonalizedPageRanks under a context: the
// single fused width-K pass is cancelled cooperatively, so one deadline
// bounds all K queries together.
func PersonalizedPageRanksCtx(ctx context.Context, g *Graph, sources []uint32, damping, tol float64, maxIter int) ([][]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Sources: sources, Rank: true, Damping: damping, Tol: tol}).Check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	results, err := algo.RunBatchCtx(ctx, e, g.NumNodes(),
		algo.PersonalizedPageRankSet(g, sources, damping, tol, maxIter)...)
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(results))
	for i, r := range results {
		vals[i] = r.Values
	}
	return vals, nil
}

// InDegree runs one InDegree iteration on Mixen and returns each node's
// in-degree-weighted score.
func InDegree(g *Graph) ([]float64, error) {
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// PageRank runs damped PageRank on Mixen until |Δ|₁ < tol or maxIter. It
// returns an error without running when damping is outside (0, 1) or tol
// is NaN, infinite or negative; the other PageRank helpers share the rule.
func PageRank(g *Graph, damping, tol float64, maxIter int) ([]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Rank: true, Damping: damping, Tol: tol}).Check(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(algo.NewPageRank(g, damping, tol, maxIter))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// BFS runs breadth-first search from source on Mixen and returns per-node
// hop counts (+Inf when unreachable). A source not below g.NumNodes() is an
// error here and in every helper that takes sources.
func BFS(g *Graph, source uint32) ([]float64, error) {
	if err := (algo.Args{N: g.NumNodes(), Sources: []uint32{source}}).Check(); err != nil {
		return nil, err
	}
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	res, err := algo.RunBFS(e, g, source)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// CollaborativeFilter runs the CF propagation kernel for iters iterations
// and returns n×k latent values (k lanes per node).
func CollaborativeFilter(g *Graph, k, iters int) ([]float64, error) {
	e, err := New(g, Config{})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(algo.NewCF(g, k, iters))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// ConnectedComponents labels weakly-connected components on the Mixen
// engine: labels[v] is the smallest node id in v's component.
func ConnectedComponents(g *Graph) ([]float64, error) {
	return algo.ConnectedComponents(g, func(sym *Graph) (Engine, error) {
		return core.New(sym, core.Config{})
	})
}

// CountTriangles counts undirected triangles with rank-ordered adjacency
// intersection, in parallel.
func CountTriangles(g *Graph) int64 { return algo.CountTriangles(g, 0) }

// KCore computes every node's core number (Batagelj–Zaveršnik peeling).
func KCore(g *Graph) []int32 { return algo.KCore(g) }

// LabelPropagation detects communities on the undirected view of g with
// deterministic synchronous LPA. It returns per-node labels and the number
// of rounds executed.
func LabelPropagation(g *Graph, maxIters int) ([]uint32, int) {
	return algo.LabelPropagation(g, maxIters)
}

// HITS runs Kleinberg's algorithm; see algo.HITS.
func HITS(g *Graph, iters int, tol float64) (authority, hub []float64) {
	s := algo.HITS(g, iters, tol)
	return s.Authority, s.Hub
}

// SALSA runs the stochastic link-structure analysis; see algo.SALSA.
func SALSA(g *Graph, iters int, tol float64) (authority, hub []float64) {
	s := algo.SALSA(g, iters, tol)
	return s.Authority, s.Hub
}

// WeightedGraph is a graph with per-edge weights (SSSP substrate).
type WeightedGraph = graph.Weighted

// WeightedEdge is a weighted directed link.
type WeightedEdge = graph.WEdge

// WeightedFromEdges builds a weighted graph with n nodes.
func WeightedFromEdges(n int, edges []WeightedEdge) (*WeightedGraph, error) {
	return graph.WeightedFromEdges(n, edges)
}

// RandomWeights assigns uniform [lo, hi) weights to g's edges.
func RandomWeights(g *Graph, lo, hi float64, seed int64) (*WeightedGraph, error) {
	return graph.RandomWeights(g, lo, hi, seed)
}

// ShortestPaths computes single-source shortest paths with parallel
// Δ-stepping (delta <= 0 picks a heuristic width). Weights must be
// non-negative; unreachable nodes get +Inf.
func ShortestPaths(w *WeightedGraph, source uint32) ([]float64, error) {
	return algo.SSSPDeltaStepping(w, source, 0, 0)
}

// ShortestPathsBellmanFord computes SSSP by parallel label-correcting
// rounds (the pulling-flow execution pattern).
func ShortestPathsBellmanFord(w *WeightedGraph, source uint32, threads int) ([]float64, error) {
	return algo.SSSPBellmanFord(w, source, threads)
}

// ShortestPathsDijkstra is the serial reference implementation.
func ShortestPathsDijkstra(w *WeightedGraph, source uint32) ([]float64, error) {
	return algo.SSSPDijkstra(w, source)
}

// Collector is the observability hook every engine accepts: a source of
// named counters, gauges and histograms. See NewMetricsRegistry for the
// recording implementation; nil/absent means a zero-cost no-op.
type Collector = obs.Collector

// MetricsRegistry is the recording Collector: snapshotable to JSON,
// publishable through expvar, servable over HTTP (ServeMetrics).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty recording Collector.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RunStats is the Mixen engine's per-phase timing breakdown.
type RunStats = core.RunStats

// PrepStats is the Mixen engine's preprocessing cost breakdown.
type PrepStats = core.PrepStats

// RunReport is the JSON-serializable record of one engine run (effective
// config, phase breakdown, per-iteration trace, metrics snapshot).
type RunReport = obs.RunReport

// IterationTrace is one main-phase iteration's record inside a RunReport.
type IterationTrace = obs.IterationTrace

// GraphInfo summarizes the input graph inside a RunReport.
type GraphInfo = obs.GraphInfo

// MetricsServer serves a MetricsRegistry over HTTP (/metrics JSON,
// /debug/vars expvar, /debug/pprof profiling).
type MetricsServer = obs.MetricsServer

// ServeMetrics publishes r through expvar and serves it (plus pprof) on
// addr until the returned server is closed.
func ServeMetrics(addr string, r *MetricsRegistry) (*MetricsServer, error) {
	return obs.ServeMetrics(addr, r)
}

// RegisterDebugHandlers mounts the observability surface for r on mux:
// /metrics (JSON snapshot), /debug/vars (expvar) and /debug/pprof/*. For
// processes that run their own HTTP server (cmd/mixenserve) instead of a
// dedicated metrics listener.
func RegisterDebugHandlers(mux *http.ServeMux, r *MetricsRegistry) {
	obs.RegisterDebugHandlers(mux, r)
}

// PublishExpvar exposes r's snapshot as the named expvar variable
// (idempotent per name; the latest registry wins).
func PublishExpvar(name string, r *MetricsRegistry) { obs.PublishExpvar(name, r) }

// WritePrometheusMetrics renders r in the Prometheus text exposition
// format (text/plain; version=0.0.4) — counters, gauges and cumulative
// histogram bucket families. RegisterDebugHandlers serves the same
// rendering at /metrics?format=prom.
func WritePrometheusMetrics(w io.Writer, r *MetricsRegistry) error {
	return obs.WritePrometheus(w, r)
}

// Trace is one request's span record as it flows through admission, the
// batcher and the engine's iteration loop. A nil *Trace discards
// everything — the tracing-off path costs one branch per record site.
type Trace = obs.Trace

// Tracer mints request ids, applies head-based sampling and keeps the
// completed-trace ring served by RegisterTraceHandler.
type Tracer = obs.Tracer

// TraceSnapshot is the JSON view of one completed trace.
type TraceSnapshot = obs.TraceSnapshot

// NewTracer returns a Tracer keeping ringSize completed traces and
// sampling one in every sample requests (0 disables, 1 traces all).
func NewTracer(ringSize, sample int) *Tracer { return obs.NewTracer(ringSize, sample) }

// WithTrace attaches t to ctx so engine runs and batcher submissions made
// under ctx record their spans into it. A nil t returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context { return obs.WithTrace(ctx, t) }

// TraceFromContext returns the trace attached to ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace { return obs.TraceFromContext(ctx) }

// RegisterTraceHandler mounts /debug/traces on mux, serving tr's completed
// traces as JSON (filterable by min_dur, outcome and limit).
func RegisterTraceHandler(mux *http.ServeMux, tr *Tracer) {
	obs.RegisterTraceHandler(mux, tr.Ring())
}

// SLOWindow is a sliding-window latency/size distribution (a ring of
// rotating sub-histograms) whose Stats reflect only the recent past —
// live p50/p95/p99 for serving dashboards.
type SLOWindow = obs.Window

// NewSLOWindow returns a window of `slots` sub-histograms each covering
// slotDur (both <= 0 pick the 10 × 1s default).
func NewSLOWindow(slots int, slotDur time.Duration) *SLOWindow {
	return obs.NewWindow(slots, slotDur)
}

// RuntimePoller samples the Go runtime (goroutines, heap, GC) into a
// registry at a fixed interval; see StartRuntimePoller.
type RuntimePoller = obs.RuntimePoller

// StartRuntimePoller begins sampling runtime.* gauges into r every
// interval; extra funcs run on each tick (for caller-owned periodic
// sampling). Stop the returned poller to end the goroutine.
func StartRuntimePoller(r *MetricsRegistry, interval time.Duration, extra ...func()) *RuntimePoller {
	return obs.StartRuntimePoller(r, interval, extra...)
}

// SchedulerPoolStats is a snapshot of the shared worker pool (persistent
// workers, queued wakeups, recycled loop descriptors).
type SchedulerPoolStats = sched.PoolStats

// SchedPoolStats snapshots the process-wide scheduler worker pool.
func SchedPoolStats() SchedulerPoolStats { return sched.Stats() }

// Instrument attaches c to an engine that supports telemetry and reports
// whether it did. All engines in this module do.
func Instrument(e Engine, c Collector) bool {
	if i, ok := e.(obs.Instrumentable); ok {
		i.SetCollector(c)
		return true
	}
	return false
}

// InstrumentScheduler routes parallel-runtime telemetry (chunk counts,
// worker idle time) into c; nil disables it again. Scheduler metrics are
// global to the process, unlike per-engine collectors.
func InstrumentScheduler(c Collector) { sched.SetCollector(c) }

// FormatTimeline renders a per-iteration trace as a human-readable table
// (the -trace output of cmd/mixenrun).
func FormatTimeline(trace []IterationTrace) string { return obs.FormatTimeline(trace) }

// Filtered exposes Mixen's relabeled mixed CSR/CSC form for advanced use.
type Filtered = filter.Filtered

// Filter runs only the filtering/relabeling stage.
func Filter(g *Graph) *Filtered { return filter.Filter(g) }
