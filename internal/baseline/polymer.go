package baseline

import (
	"fmt"

	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Polymer is the Polymer-like engine: NUMA-aware processing modelled as
// destination-partitioned aggregation. The node range is cut into P
// partitions ("sockets"); each partition owns a private slice of the
// in-edge structure and accumulates its destinations locally, so writes
// never cross partitions and no atomics are required — the redistribution
// strategy the paper credits for Polymer beating Ligra on link analysis.
// Like the real Polymer it has no frontier machinery, which is why its BFS
// regresses (Table 3).
type Polymer struct {
	PrepTimer
	Instr
	g          *graph.Graph
	threads    int
	partitions int
	rp         runPool
	// Per-partition CSC slices: partition p owns destinations
	// [bounds[p], bounds[p+1]) with its own pointer/index arrays, the
	// "graph data evenly redistributed across NUMA nodes" of §6.2.
	bounds []int
	ptrs   [][]int64
	idxs   [][]graph.Node
}

// NewPolymer builds the engine with the given partition count (0 picks one
// partition per thread, modelling one per socket-local worker group).
func NewPolymer(g *graph.Graph, threads, partitions int) *Polymer {
	if threads <= 0 {
		threads = sched.DefaultThreads()
	}
	if partitions <= 0 {
		partitions = maxInt(threads, 2)
	}
	n := g.NumNodes()
	if partitions > n && n > 0 {
		partitions = n
	}
	p := &Polymer{g: g, threads: threads, partitions: partitions}
	p.PrepTime = timed(func() {
		// Polymer ingests an edge list like Ligra, then additionally
		// redistributes the data across its partitions.
		gg := ingestEdgeList(g)
		inPtr, inIdx := gg.InPtr, gg.InIdx
		p.bounds = make([]int, partitions+1)
		p.ptrs = make([][]int64, partitions)
		p.idxs = make([][]graph.Node, partitions)
		// Edge-balanced destination split: each partition receives about
		// m/P in-edges.
		m := int64(len(inIdx))
		target := m / int64(partitions)
		bound := 0
		for part := 0; part < partitions; part++ {
			p.bounds[part] = bound
			var edges int64
			hi := bound
			for hi < n && (edges < target || part == partitions-1) {
				edges += inPtr[hi+1] - inPtr[hi]
				hi++
			}
			if part == partitions-1 {
				hi = n
			}
			// Private copies model per-socket allocation.
			lo64 := inPtr[bound]
			hi64 := inPtr[hi]
			ptr := make([]int64, hi-bound+1)
			for i := bound; i <= hi; i++ {
				ptr[i-bound] = inPtr[i] - lo64
			}
			idx := make([]graph.Node, hi64-lo64)
			copy(idx, inIdx[lo64:hi64])
			p.ptrs[part] = ptr
			p.idxs[part] = idx
			bound = hi
		}
		p.bounds[partitions] = n
	})
	return p
}

// Name implements vprog.Engine.
func (p *Polymer) Name() string { return "polymer" }

// Graph returns the input graph.
func (p *Polymer) Graph() *graph.Graph { return p.g }

// Partitions returns the partition count in use.
func (p *Polymer) Partitions() int { return p.partitions }

// Run implements vprog.Engine. Each iteration processes partitions in
// parallel; inside a partition, destinations are pulled from the private
// in-edge slice, so every write stays partition-local.
func (p *Polymer) Run(prog vprog.Program) (*vprog.Result, error) {
	s, err := p.rp.acquire(p.g, prog, p.threads)
	if err != nil {
		return nil, err
	}
	defer s.release()
	w, ring := s.w, s.ring
	iter := 0
	var delta float64
	partDelta := s.scratchFloats(p.partitions)
	accs := s.lanes(p.partitions)
	runs, iters, iterNs := p.runInstruments(p.Name())
	runs.Inc()
	for iter < prog.MaxIter() {
		sp := obs.StartSpan(iterNs)
		sched.For(p.partitions, p.threads, 1, func(part int) {
			lo := p.bounds[part]
			hi := p.bounds[part+1]
			ptr := p.ptrs[part]
			idx := p.idxs[part]
			acc := accs[part]
			var d float64
			for v := lo; v < hi; v++ {
				row := idx[ptr[v-lo]:ptr[v-lo+1]]
				if len(row) == 0 {
					continue
				}
				id := ring.Identity()
				for l := 0; l < w; l++ {
					acc[l] = id
				}
				if ring == vprog.Sum {
					for _, u := range row {
						sc := s.scale[u]
						ub := int(u) * w
						for l := 0; l < w; l++ {
							acc[l] += float64(s.x[ub+l] * sc)
						}
					}
				} else {
					for _, u := range row {
						sc := s.scale[u]
						ub := int(u) * w
						for l := 0; l < w; l++ {
							val := s.x[ub+l] + sc
							if val < acc[l] {
								acc[l] = val
							}
						}
					}
				}
				d += prog.Apply(uint32(v), acc, s.x[v*w:v*w+w], s.y[v*w:v*w+w])
			}
			partDelta[part] = d
		})
		s.x, s.y = s.y, s.x
		iter++
		delta = 0
		for _, d := range partDelta {
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

// Validate checks the partition structure (tests only).
func (p *Polymer) Validate() error {
	n := p.g.NumNodes()
	if p.bounds[0] != 0 || p.bounds[p.partitions] != n {
		return fmt.Errorf("polymer: bounds do not cover [0,%d)", n)
	}
	var edges int64
	for part := 0; part < p.partitions; part++ {
		if p.bounds[part] > p.bounds[part+1] {
			return fmt.Errorf("polymer: bounds decreasing at %d", part)
		}
		span := p.bounds[part+1] - p.bounds[part]
		if len(p.ptrs[part]) != span+1 {
			return fmt.Errorf("polymer: partition %d ptr len %d, want %d", part, len(p.ptrs[part]), span+1)
		}
		edges += p.ptrs[part][span]
	}
	if edges != p.g.NumEdges() {
		return fmt.Errorf("polymer: partitions hold %d edges, graph has %d", edges, p.g.NumEdges())
	}
	return nil
}
