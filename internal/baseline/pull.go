package baseline

import (
	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Pull is the GraphMat-like engine: every iteration each receiver pulls
// from its in-neighbours through the CSC, so no atomics are needed, at the
// cost of up to m random reads of the source property array (§3, "Random
// Memory Access").
type Pull struct {
	PrepTimer
	Instr
	g       *graph.Graph
	threads int
	rp      runPool
	// Its own CSC copy: GraphMat converts the input into its internal
	// matrix format rather than accepting the CSR binary directly, which
	// is what Table 4 charges it for.
	inPtr []int64
	inIdx []graph.Node
}

// NewPull builds the engine, performing (and timing) the format conversion.
func NewPull(g *graph.Graph, threads int) *Pull {
	if threads <= 0 {
		threads = sched.DefaultThreads()
	}
	p := &Pull{g: g, threads: threads}
	p.PrepTime = timed(func() {
		// GraphMat ingests an edge list and converts it into its internal
		// matrix format; model that real cost (materialize + rebuild) and
		// keep the in-edge half.
		gg := ingestEdgeList(g)
		p.inPtr, p.inIdx = gg.InPtr, gg.InIdx
	})
	return p
}

// Name implements vprog.Engine.
func (p *Pull) Name() string { return "pull" }

// Graph returns the input graph.
func (p *Pull) Graph() *graph.Graph { return p.g }

// Run implements vprog.Engine.
func (p *Pull) Run(prog vprog.Program) (*vprog.Result, error) {
	s, err := p.rp.acquire(p.g, prog, p.threads)
	if err != nil {
		return nil, err
	}
	defer s.release()
	n, w, ring := s.n, s.w, s.ring
	iter := 0
	var delta float64
	workers := maxInt(p.threads, 1)
	partial := s.scratchFloats(workers)
	accs := s.lanes(workers)
	// msg[u*w+l] is source u's message send(x_u, scale_u) in lane l,
	// computed once per iteration: the edge loop then reads one value per
	// in-edge instead of x and scale (GraphMat's per-vertex message).
	msg := s.binSpace(n * w)
	runs, iters, iterNs := p.runInstruments(p.Name())
	runs.Inc()
	for iter < prog.MaxIter() {
		sp := obs.StartSpan(iterNs)
		for i := range partial {
			partial[i] = 0
		}
		x := s.x
		sched.ForStatic(n, p.threads, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				sc := s.scale[u]
				mb := msg[u*w : u*w+w]
				for l, xv := range x[u*w : u*w+w] {
					mb[l] = ring.Send(xv, sc)
				}
			}
		})
		sched.ForStatic(n, p.threads, func(worker, lo, hi int) {
			var d float64
			acc := accs[worker]
			for v := lo; v < hi; v++ {
				row := p.inIdx[p.inPtr[v]:p.inPtr[v+1]]
				if len(row) == 0 {
					continue // non-receiver keeps its value
				}
				id := ring.Identity()
				for l := 0; l < w; l++ {
					acc[l] = id
				}
				switch {
				case ring == vprog.Sum && w == 1:
					a := 0.0
					for _, u := range row {
						a += msg[u]
					}
					acc[0] = a
				case ring == vprog.Sum:
					for _, u := range row {
						for l, m := range msg[int(u)*w : int(u)*w+w] {
							acc[l] += m
						}
					}
				default:
					for _, u := range row {
						for l, m := range msg[int(u)*w : int(u)*w+w] {
							if m < acc[l] {
								acc[l] = m
							}
						}
					}
				}
				d += prog.Apply(uint32(v), acc, s.x[v*w:v*w+w], s.y[v*w:v*w+w])
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

// TrafficPerIteration models the pull flow's memory traffic per iteration
// (§3): one scan of the CSC (n+m ids), m random reads of the property
// array, and n property writes.
func (p *Pull) TrafficPerIteration(width int) int64 {
	const f, u = 8, 4
	n := int64(p.g.NumNodes())
	m := p.g.NumEdges()
	lanes := int64(width)
	return (n+1)*8 + m*u + m*f*lanes + n*f*lanes
}

// RandomAccessesPerIteration models the pull flow's random jumps: up to one
// per edge (reads of x are in destination order, not source order).
func (p *Pull) RandomAccessesPerIteration() int64 { return p.g.NumEdges() }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
