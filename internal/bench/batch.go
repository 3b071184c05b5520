package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"mixen/internal/algo"
	"mixen/internal/core"
	"mixen/internal/graph"
	"mixen/internal/memmodel"
)

// batchKs are the batch sizes the study sweeps (K = concurrent queries
// fused into one width-K pass).
var batchKs = []int{1, 2, 4, 8, 16}

// batchDamping/batchIters fix the personalized-PageRank workload: a fixed
// iteration count (tol = 0) so batched and per-query runs do identical
// arithmetic and the throughput comparison is iso-work.
const (
	batchDamping = 0.85
	batchIters   = 10
)

// batchHierarchyScale sizes the simulated cache hierarchy for the batch
// study. Fig 5 divides the paper's hierarchy by 64 for its width-1
// traces; a width-K run carries K× the property and bin state, and with
// shrink-8 graphs the divide-by-64 caches are 8× smaller relative to
// the graph than the real machine's — small enough that the width-16
// working set sits in the partial-fit transition where simulated
// traffic jitters. Divide-by-32 keeps the study in the cache-starved
// regime a full-size graph occupies, where per-query traffic decreases
// cleanly in K.
const batchHierarchyScale = 32

// batchSimJitter is the tolerated per-step rise in *simulated* per-query
// traffic between consecutive Ks. The analytic model is exactly
// monotone; the discretized cache simulation shows ±few-% capacity
// jitter at the largest widths on the biggest presets (width-K dynamic
// bins crossing a scaled cache level). Rises within this fraction are
// treated as jitter, not a trend violation.
const batchSimJitter = 0.03

// batchTrials is how many alternating timed trials each serving mode
// gets per (graph, K) point; the fastest trial is reported.
const batchTrials = 3

// BatchRow is one point of the batched-serving study: K personalized
// PageRanks answered by (a) K goroutines on the shared engine, one
// width-1 run each — the -parallel serving mode — and (b) one fused
// width-K run through core.Batcher — the -batch mode.
type BatchRow struct {
	Graph string
	K     int
	// Throughput in queries/sec for the two serving modes.
	ParallelQPS float64
	BatchQPS    float64
	// Per-query Main-Phase traffic: the partition's analytic model and the
	// cache-hierarchy simulation (bytes per query per run, i.e. the
	// width-K figure divided by K). Both fall monotonically in K — the
	// index streams are paid once per pass, not once per query.
	ModelBytesPerQuery int64
	SimBytesPerQuery   int64
	// Identical reports whether every batched result matched its query's
	// standalone width-1 run bit-for-bit.
	Identical bool
}

// Speedup is the batched mode's throughput advantage.
func (r BatchRow) Speedup() float64 {
	if r.ParallelQPS == 0 {
		return 0
	}
	return r.BatchQPS / r.ParallelQPS
}

// batchSources picks the K highest-out-degree nodes (ties by id) as the
// query sources. Serving workloads on skewed graphs concentrate on hubs,
// and hub-rooted personalizations activate overlapping regions — the
// regime batched execution amortizes; tail-rooted queries with tiny,
// disjoint reachable sets are better served individually, where the
// activity mask prunes each run to its own region.
func batchSources(g *graph.Graph, k int) []uint32 {
	n := g.NumNodes()
	srcs := make([]uint32, k)
	var degs []int64
	for i := range srcs {
		srcs[i] = uint32(i % n)
	}
	degs = make([]int64, k)
	for i := range degs {
		degs[i] = int64(g.OutDegree(graph.Node(srcs[i])))
	}
	for v := k; v < n; v++ {
		// Replace the current minimum if v has a strictly larger degree.
		mi := 0
		for i := 1; i < k; i++ {
			if degs[i] < degs[mi] || (degs[i] == degs[mi] && srcs[i] > srcs[mi]) {
				mi = i
			}
		}
		if d := int64(g.OutDegree(graph.Node(v))); d > degs[mi] {
			srcs[mi] = uint32(v)
			degs[mi] = d
		}
	}
	return srcs
}

// BatchStudy runs the batched-serving experiment for each selected graph
// and each K in {1, 2, 4, 8, 16}: wall-clock throughput of parallel
// width-1 serving vs one fused width-K pass, the analytic and simulated
// per-query traffic, and a bit-identity cross-check of every batched
// result against its standalone run.
func BatchStudy(o Options) ([]BatchRow, error) {
	o = o.withDefaults()
	graphs, order, err := o.buildGraphs()
	if err != nil {
		return nil, err
	}
	var rows []BatchRow
	for _, gname := range order {
		g := graphs[gname]
		e, err := core.New(g, core.Config{Threads: o.Threads})
		if err != nil {
			return nil, err
		}
		ones := make([]float64, g.NumNodes())
		for i := range ones {
			ones[i] = 1
		}
		for _, k := range batchKs {
			row, err := batchPoint(e, g, gname, k, ones)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func batchPoint(e *core.Engine, g *graph.Graph, gname string, k int, ones []float64) (BatchRow, error) {
	sources := batchSources(g, k)

	// Standalone references: one width-1 run per query (also the
	// bit-identity baseline).
	refProgs := algo.PersonalizedPageRankSet(g, sources, batchDamping, 0, batchIters)
	refs := make([][]float64, k)
	for i, p := range refProgs {
		res, err := e.Run(p)
		if err != nil {
			return BatchRow{}, err
		}
		refs[i] = res.Values
	}

	reps := batchReps(g)

	// Parallel mode: K goroutines, each a complete width-1 run on the
	// shared engine (what `mixenrun -parallel K` does).
	parallelTrial := func() (time.Duration, error) {
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			progs := algo.PersonalizedPageRankSet(g, sources, batchDamping, 0, batchIters)
			errs := make([]error, k)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = e.Run(progs[i])
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	}

	// Batch mode: the same K queries submitted to a Batcher sized to
	// flush exactly one fused width-K pass per round.
	b := core.NewBatcher(e, core.BatcherConfig{MaxBatch: k})
	defer b.Close()
	identical := true
	checked := false
	batchTrial := func() (time.Duration, error) {
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			progs := algo.PersonalizedPageRankSet(g, sources, batchDamping, 0, batchIters)
			futs, err := b.SubmitAllCtx(context.Background(), progs)
			if err != nil {
				return 0, err
			}
			for i, fut := range futs {
				res, err := fut.Wait()
				if err != nil {
					return 0, err
				}
				if !checked && !equalF64(res.Values, refs[i]) {
					identical = false
				}
			}
			checked = true
		}
		return time.Since(t0), nil
	}

	// Alternate the two modes across trials and keep each mode's fastest:
	// on a shared box the min is robust to GC and scheduler jitter that a
	// single timed interval is not.
	var parBest, batBest time.Duration
	for trial := 0; trial < batchTrials; trial++ {
		runtime.GC()
		pd, err := parallelTrial()
		if err != nil {
			return BatchRow{}, err
		}
		runtime.GC()
		bd, err := batchTrial()
		if err != nil {
			return BatchRow{}, err
		}
		if trial == 0 || pd < parBest {
			parBest = pd
		}
		if trial == 0 || bd < batBest {
			batBest = bd
		}
	}
	parallelQPS := float64(k*reps) / parBest.Seconds()
	batchQPS := float64(k*reps) / batBest.Seconds()

	// Analytic model: the fused pass streams the index arrays once for all
	// K lanes.
	model := e.P.TrafficPerIteration(k, true) / int64(k)

	// Cache-hierarchy simulation of the width-K Main-Phase stream.
	h, err := memmodel.ScaledHierarchy(batchHierarchyScale)
	if err != nil {
		return BatchRow{}, err
	}
	tr := memmodel.TraceMixenWidthIters(e, ones, k, h, fig5TraceIters)
	sim := tr.TrafficBytes / int64(k)

	return BatchRow{
		Graph:              gname,
		K:                  k,
		ParallelQPS:        parallelQPS,
		BatchQPS:           batchQPS,
		ModelBytesPerQuery: model,
		SimBytesPerQuery:   sim,
		Identical:          identical,
	}, nil
}

// batchReps picks the per-point repetition count: more rounds on small
// graphs so the wall-clock numbers are stable.
func batchReps(g *graph.Graph) int {
	switch {
	case g.NumEdges() < 200_000:
		return 8
	case g.NumEdges() < 2_000_000:
		return 4
	default:
		return 2
	}
}

// FormatBatchStudy renders the study.
func FormatBatchStudy(rows []BatchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %4s %12s %12s %8s %14s %14s %10s\n",
		"Graph", "K", "par q/s", "batch q/s", "speedup", "model B/query", "sim B/query", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %4d %12.2f %12.2f %7.2fx %14d %14d %10v\n",
			r.Graph, r.K, r.ParallelQPS, r.BatchQPS, r.Speedup(), r.ModelBytesPerQuery, r.SimBytesPerQuery, r.Identical)
	}
	return b.String()
}

// BatchTrafficMonotone verifies the study's central claim on its own rows:
// within each graph, per-query traffic never rises as K grows. The
// analytic model must be exactly monotone; the cache simulation may
// rise by at most batchSimJitter between consecutive Ks (discretized
// capacity jitter, see the constant). Returns nil when the claim holds.
func BatchTrafficMonotone(rows []BatchRow) error {
	last := map[string]BatchRow{}
	for _, r := range rows {
		if prev, ok := last[r.Graph]; ok {
			if r.ModelBytesPerQuery > prev.ModelBytesPerQuery {
				return fmt.Errorf("bench: %s model traffic/query rose from %d (K=%d) to %d (K=%d)",
					r.Graph, prev.ModelBytesPerQuery, prev.K, r.ModelBytesPerQuery, r.K)
			}
			if lim := int64(float64(prev.SimBytesPerQuery) * (1 + batchSimJitter)); r.SimBytesPerQuery > lim {
				return fmt.Errorf("bench: %s simulated traffic/query rose from %d (K=%d) to %d (K=%d), beyond the %.0f%% jitter band",
					r.Graph, prev.SimBytesPerQuery, prev.K, r.SimBytesPerQuery, r.K, batchSimJitter*100)
			}
		}
		last[r.Graph] = r
	}
	return nil
}

// BatchProgressions reports, for each graph, whether the batched mode beat
// parallel serving at every K ≥ minK (the acceptance bar for skewed
// presets).
func BatchProgressions(rows []BatchRow, minK int) map[string]bool {
	out := map[string]bool{}
	for _, r := range rows {
		if r.K < minK {
			continue
		}
		won := r.BatchQPS > r.ParallelQPS
		if prev, ok := out[r.Graph]; ok {
			out[r.Graph] = prev && won
		} else {
			out[r.Graph] = won
		}
	}
	return out
}
