// Package baseline implements from-scratch stand-ins for the four
// frameworks the paper compares Mixen against, each reproducing the
// computational pattern the paper attributes to it:
//
//   - Pull (GraphMat-like): CSC pulling flow, no atomics, hardware-oblivious
//     (§2.2 Algorithm 1 lines 5-7);
//   - Push (Ligra-like): CSR pushing flow with atomic accumulation, plus a
//     genuine frontier-based BFS specialisation (Ligra's strength);
//   - Polymer (Polymer-like): destination-partitioned processing with
//     partition-local accumulation buffers and a merge step, modelling
//     NUMA-local aggregation; no frontier machinery (hence its weak BFS);
//   - BlockGAS (GPOP-like): full-graph 2-D cache blocking with dynamic bins
//     and a Scatter-Gather-Apply schedule, but no connectivity filtering and
//     no static-bin caching (§2.2 Algorithm 2).
//
// All engines satisfy vprog.Engine and follow the shared receiver contract
// (nodes with zero in-degree keep their initial values).
package baseline

import (
	"fmt"
	"sync"
	"time"

	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Instr is the collector attachment embedded by every baseline engine,
// implementing obs.Instrumentable. The zero value is the no-op collector.
type Instr struct {
	col obs.Collector
}

// SetCollector attaches a telemetry collector (nil resets to no-op).
func (i *Instr) SetCollector(c obs.Collector) { i.col = obs.Default(c) }

// collector returns the attached collector, never nil.
func (i *Instr) collector() obs.Collector {
	if i.col == nil {
		return obs.Nop{}
	}
	return i.col
}

// runInstruments fetches the per-run instruments every baseline records:
// run count, iteration count, and the per-iteration time distribution,
// namespaced by engine name (e.g. "pull.iteration_ns").
func (i *Instr) runInstruments(name string) (runs, iters *obs.Counter, iterNs *obs.Histogram) {
	c := i.collector()
	return c.Counter(name + ".runs"), c.Counter(name + ".iterations"), c.Histogram(name + ".iteration_ns")
}

// setup holds the run state common to every baseline engine: the x/y
// property arrays, scale factors, and reusable scratch buffers. Setups are
// recycled across runs through runPool, mirroring the core engine's
// workspace discipline, so comparative benchmarks measure kernels rather
// than the allocator — and so the baselines share the core engine's
// concurrent-runs contract (each run owns a private setup).
type setup struct {
	n     int
	w     int
	ring  vprog.Ring
	x, y  []float64
	scale []float64

	pool    *sync.Pool  // owning pool, for release
	accs    [][]float64 // per-worker/partition w-lane accumulators
	scratch []float64   // per-worker/partition reduction slots
	bins    []float64   // dynamic-bin values (blocked engine) or per-source messages (pull)
}

// runPool recycles setups across runs, keyed by program width. The zero
// value is ready to use.
type runPool struct {
	pools sync.Map // width -> *sync.Pool
}

// acquire returns a setup initialised for prog: pooled buffers when a
// compatible setup is available, freshly allocated otherwise.
func (rp *runPool) acquire(g *graph.Graph, prog vprog.Program, threads int) (*setup, error) {
	w := prog.Width()
	if w <= 0 {
		return nil, fmt.Errorf("baseline: program width %d must be positive", w)
	}
	pv, _ := rp.pools.LoadOrStore(w, &sync.Pool{})
	sp := pv.(*sync.Pool)
	n := g.NumNodes()
	s, _ := sp.Get().(*setup)
	if s == nil || s.n != n || s.w != w {
		s = &setup{
			n:     n,
			w:     w,
			x:     make([]float64, n*w),
			y:     make([]float64, n*w),
			scale: make([]float64, n),
		}
	}
	s.pool = sp
	s.ring = prog.Ring()
	sched.For(n, threads, 1024, func(v int) {
		prog.Init(uint32(v), s.x[v*w:v*w+w])
		s.scale[v] = prog.Scale(uint32(v))
	})
	copy(s.y, s.x)
	return s, nil
}

// release returns the setup to its pool for reuse by a later run.
func (s *setup) release() {
	if s.pool != nil {
		s.pool.Put(s)
	}
}

// lanes returns k reusable w-lane accumulator buffers (one per logical
// worker or partition), grown on first use and kept across runs.
func (s *setup) lanes(k int) [][]float64 {
	for len(s.accs) < k {
		s.accs = append(s.accs, make([]float64, s.w))
	}
	return s.accs[:k]
}

// scratchFloats returns a reusable scratch slice of k float64s (contents
// undefined — callers reset what they read).
func (s *setup) scratchFloats(k int) []float64 {
	if cap(s.scratch) < k {
		s.scratch = make([]float64, k)
	}
	return s.scratch[:k]
}

// binSpace returns a reusable flat array of k values: the blocked engine's
// dynamic bins, the pull engine's per-source messages (contents undefined
// — every Scatter or message pass rewrites what is read after it).
func (s *setup) binSpace(k int) []float64 {
	if cap(s.bins) < k {
		s.bins = make([]float64, k)
	}
	return s.bins[:k]
}

// result snapshots the final values into a fresh slice: the setup's own
// buffers return to the pool, so they must never leak into a Result.
func (s *setup) result(iter int, delta float64) *vprog.Result {
	out := make([]float64, len(s.x))
	copy(out, s.x)
	return &vprog.Result{Values: out, Iterations: iter, Delta: delta}
}

// PrepTimer captures a baseline's preprocessing cost for Table 4. Each
// engine's New function performs (and times) the real structure
// construction that framework requires.
type PrepTimer struct {
	PrepTime time.Duration
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// ingestEdgeList models the edge-list → internal-format conversion that
// Ligra, Polymer and GraphMat perform at load time (the dominant cost in
// the paper's Table 4, which GPOP and Mixen skip by accepting the CSR
// binary directly): the edge list is materialized and both direction
// structures are rebuilt and sorted from scratch.
func ingestEdgeList(g *graph.Graph) *graph.Graph {
	gg, err := graph.FromEdges(g.NumNodes(), g.Edges())
	if err != nil {
		// The edge list came from a validated graph; failure is impossible
		// short of memory corruption.
		panic(err)
	}
	return gg
}
