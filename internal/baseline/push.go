package baseline

import (
	"math"
	"sync/atomic"
	"unsafe"

	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Push is the Ligra-like engine: a vertex-centric pushing flow over the
// CSR where concurrent writers accumulate into destinations with atomic
// compare-and-swap (§2.2 Algorithm 1 lines 1-3). This is the pattern the
// paper blames for Ligra's poor link-analysis performance; its strength is
// the frontier machinery, reproduced here as a genuine sparse frontier BFS
// (see RunFrontierBFS).
type Push struct {
	PrepTimer
	Instr
	g       *graph.Graph
	threads int
	rp      runPool
	// Ligra converts edge lists into both direction structures at load
	// time; Table 4 charges it for that conversion.
	outPtr []int64
	outIdx []graph.Node
	inPtr  []int64
	inIdx  []graph.Node
}

// NewPush builds the engine, performing (and timing) the dual-direction
// format conversion.
func NewPush(g *graph.Graph, threads int) *Push {
	if threads <= 0 {
		threads = sched.DefaultThreads()
	}
	p := &Push{g: g, threads: threads}
	p.PrepTime = timed(func() {
		// Ligra ingests an edge list and builds both direction structures.
		gg := ingestEdgeList(g)
		p.outPtr, p.outIdx = gg.OutPtr, gg.OutIdx
		p.inPtr, p.inIdx = gg.InPtr, gg.InIdx
	})
	return p
}

// Name implements vprog.Engine.
func (p *Push) Name() string { return "push" }

// Graph returns the input graph.
func (p *Push) Graph() *graph.Graph { return p.g }

// atomicAdd adds delta to *addr with a CAS loop.
func atomicAdd(addr *float64, delta float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, next) {
			return
		}
	}
}

// atomicMin lowers *addr to val if val is smaller.
func atomicMin(addr *float64, val float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		if math.Float64frombits(old) <= val {
			return
		}
		if atomic.CompareAndSwapUint64(bits, old, math.Float64bits(val)) {
			return
		}
	}
}

// Run implements vprog.Engine.
func (p *Push) Run(prog vprog.Program) (*vprog.Result, error) {
	s, err := p.rp.acquire(p.g, prog, p.threads)
	if err != nil {
		return nil, err
	}
	defer s.release()
	n, w, ring := s.n, s.w, s.ring
	iter := 0
	var delta float64
	partial := s.scratchFloats(maxInt(p.threads, 1))
	identity := ring.Identity()
	runs, iters, iterNs := p.runInstruments(p.Name())
	runs.Inc()
	for iter < prog.MaxIter() {
		sp := obs.StartSpan(iterNs)
		// Reset receiver slots to the ring identity.
		sched.For(n, p.threads, 2048, func(v int) {
			if p.inPtr[v+1] == p.inPtr[v] {
				return
			}
			for l := 0; l < w; l++ {
				s.y[v*w+l] = identity
			}
		})
		// Push: every source scatters into its out-neighbours atomically.
		sched.ForRange(n, p.threads, 256, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				row := p.outIdx[p.outPtr[u]:p.outPtr[u+1]]
				if len(row) == 0 {
					continue
				}
				sc := s.scale[u]
				if ring == vprog.Sum {
					for l := 0; l < w; l++ {
						val := float64(s.x[u*w+l] * sc)
						for _, v := range row {
							atomicAdd(&s.y[int(v)*w+l], val)
						}
					}
				} else {
					for l := 0; l < w; l++ {
						val := s.x[u*w+l] + sc
						for _, v := range row {
							atomicMin(&s.y[int(v)*w+l], val)
						}
					}
				}
			}
		})
		// Apply on receivers.
		for i := range partial {
			partial[i] = 0
		}
		sched.ForStatic(n, p.threads, func(worker, lo, hi int) {
			var d float64
			for v := lo; v < hi; v++ {
				if p.inPtr[v+1] == p.inPtr[v] {
					continue
				}
				d += prog.Apply(uint32(v), s.y[v*w:v*w+w], s.x[v*w:v*w+w], s.y[v*w:v*w+w])
			}
			partial[worker] += d
		})
		s.x, s.y = s.y, s.x
		iter++
		delta = 0
		for _, d := range partial {
			delta += d
		}
		sp.End()
		iters.Inc()
		if prog.Converged(delta, iter) {
			break
		}
	}
	return s.result(iter, delta), nil
}

// RunFrontierBFS runs Ligra-style direction-optimizing breadth-first
// search from source and returns per-node levels (+Inf when unreachable).
// Sparse frontiers push through out-edges; once the frontier's out-edge
// volume crosses a fraction of the remaining work, the traversal switches
// to a dense bottom-up pull over in-edges (Beamer's heuristic, which Ligra
// popularised for shared memory). This is the specialisation that makes
// the push engine competitive on traversal workloads even though it loses
// on link analysis.
func (p *Push) RunFrontierBFS(source uint32, maxIter int) (*vprog.Result, error) {
	const denseThresholdDiv = 20 // switch when frontier edges > m/20
	n := p.g.NumNodes()
	m := p.g.NumEdges()
	levels := make([]float64, n)
	inf := math.Inf(1)
	for i := range levels {
		levels[i] = inf
	}
	if int(source) >= n {
		return &vprog.Result{Values: levels}, nil
	}
	visited := make([]atomic.Bool, n)
	visited[source].Store(true)
	levels[source] = 0
	frontier := []graph.Node{graph.Node(source)}
	level := 0
	workers := maxInt(p.threads, 1)
	for len(frontier) > 0 && (maxIter <= 0 || level < maxIter) {
		level++
		var outVolume int64
		for _, u := range frontier {
			outVolume += p.outPtr[u+1] - p.outPtr[u]
		}
		if outVolume > m/denseThresholdDiv {
			frontier = p.bfsDenseStep(frontier, visited, levels, level, workers)
			continue
		}
		frontier = p.bfsSparseStep(frontier, visited, levels, level, workers)
	}
	return &vprog.Result{Values: levels, Iterations: level}, nil
}

// bfsSparseStep pushes the frontier through out-edges (top-down).
func (p *Push) bfsSparseStep(frontier []graph.Node, visited []atomic.Bool, levels []float64, level, workers int) []graph.Node {
	buckets := make([][]graph.Node, workers)
	sched.ForStatic(len(frontier), workers, func(worker, lo, hi int) {
		var next []graph.Node
		for i := lo; i < hi; i++ {
			u := frontier[i]
			for _, v := range p.outIdx[p.outPtr[u]:p.outPtr[u+1]] {
				if !visited[v].Load() && visited[v].CompareAndSwap(false, true) {
					levels[v] = float64(level)
					next = append(next, v)
				}
			}
		}
		buckets[worker] = next
	})
	out := frontier[:0]
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// bfsDenseStep scans all unvisited nodes and pulls through in-edges
// (bottom-up): a node joins the next frontier as soon as any in-neighbour
// is on the current one. No atomics are needed — each node is owned by one
// worker.
func (p *Push) bfsDenseStep(frontier []graph.Node, visited []atomic.Bool, levels []float64, level, workers int) []graph.Node {
	n := p.g.NumNodes()
	onFrontier := make([]bool, n)
	for _, u := range frontier {
		onFrontier[u] = true
	}
	buckets := make([][]graph.Node, workers)
	sched.ForStatic(n, workers, func(worker, lo, hi int) {
		var next []graph.Node
		for v := lo; v < hi; v++ {
			if visited[v].Load() {
				continue
			}
			for _, u := range p.inIdx[p.inPtr[v]:p.inPtr[v+1]] {
				if onFrontier[u] {
					visited[v].Store(true)
					levels[v] = float64(level)
					next = append(next, graph.Node(v))
					break
				}
			}
		}
		buckets[worker] = next
	})
	out := frontier[:0]
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// TrafficPerIteration models the push flow: CSR scan plus m atomic
// read-modify-writes of the output array and n property writes.
func (p *Push) TrafficPerIteration(width int) int64 {
	const f, u = 8, 4
	n := int64(p.g.NumNodes())
	m := p.g.NumEdges()
	lanes := int64(width)
	return (n+1)*8 + m*u + 2*m*f*lanes + n*f*lanes
}

// RandomAccessesPerIteration: one random write per edge.
func (p *Push) RandomAccessesPerIteration() int64 { return p.g.NumEdges() }
