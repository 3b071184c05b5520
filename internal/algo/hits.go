package algo

import (
	"math"

	"mixen/internal/graph"
	"mixen/internal/sched"
)

// HITSScores holds the mutually reinforcing authority and hub vectors.
type HITSScores struct {
	Authority  []float64
	Hub        []float64
	Iterations int
}

// HITS runs Kleinberg's algorithm: authority a = Aᵀh, hub h = A·a, each
// L2-normalised per iteration. It is provided as a library routine on the
// shared-memory runtime (the paper discusses it as an InDegree descendant
// but benchmarks only IN/PR/CF/BFS).
func HITS(g *graph.Graph, iters int, tol float64) *HITSScores {
	n := g.NumNodes()
	s := &HITSScores{
		Authority: make([]float64, n),
		Hub:       make([]float64, n),
	}
	if n == 0 {
		return s
	}
	for i := range s.Hub {
		s.Hub[i] = 1
		s.Authority[i] = 1
	}
	prevA := make([]float64, n)
	for it := 0; it < iters; it++ {
		copy(prevA, s.Authority)
		// a_v = Σ_{u→v} h_u  (pull over in-edges)
		sched.For(n, 0, 256, func(v int) {
			var sum float64
			for _, u := range g.InNeighbors(graph.Node(v)) {
				sum += s.Hub[u]
			}
			s.Authority[v] = sum
		})
		normalizeL2(s.Authority)
		// h_u = Σ_{u→v} a_v  (pull over out-edges)
		sched.For(n, 0, 256, func(u int) {
			var sum float64
			for _, v := range g.OutNeighbors(graph.Node(u)) {
				sum += s.Authority[v]
			}
			s.Hub[u] = sum
		})
		normalizeL2(s.Hub)
		s.Iterations = it + 1
		if tol > 0 {
			var delta float64
			for i := range prevA {
				delta += math.Abs(s.Authority[i] - prevA[i])
			}
			if delta < tol {
				break
			}
		}
	}
	return s
}

// SALSAScores holds the stochastic authority and hub vectors.
type SALSAScores struct {
	Authority  []float64
	Hub        []float64
	Iterations int
}

// SALSA runs Lempel & Moran's stochastic link-structure analysis: the HITS
// recurrence with degree-normalised (random-walk) propagation.
func SALSA(g *graph.Graph, iters int, tol float64) *SALSAScores {
	n := g.NumNodes()
	s := &SALSAScores{
		Authority: make([]float64, n),
		Hub:       make([]float64, n),
	}
	if n == 0 {
		return s
	}
	for i := range s.Hub {
		s.Hub[i] = 1 / float64(n)
		s.Authority[i] = 1 / float64(n)
	}
	prevA := make([]float64, n)
	for it := 0; it < iters; it++ {
		copy(prevA, s.Authority)
		// a_v = Σ_{u→v} h_u / outdeg(u)
		sched.For(n, 0, 256, func(v int) {
			var sum float64
			for _, u := range g.InNeighbors(graph.Node(v)) {
				if d := g.OutDegree(u); d > 0 {
					sum += s.Hub[u] / float64(d)
				}
			}
			s.Authority[v] = sum
		})
		normalizeL1(s.Authority)
		// h_u = Σ_{u→v} a_v / indeg(v)
		sched.For(n, 0, 256, func(u int) {
			var sum float64
			for _, v := range g.OutNeighbors(graph.Node(u)) {
				if d := g.InDegree(v); d > 0 {
					sum += s.Authority[v] / float64(d)
				}
			}
			s.Hub[u] = sum
		})
		normalizeL1(s.Hub)
		s.Iterations = it + 1
		if tol > 0 {
			var delta float64
			for i := range prevA {
				delta += math.Abs(s.Authority[i] - prevA[i])
			}
			if delta < tol {
				break
			}
		}
	}
	return s
}

func normalizeL2(v []float64) {
	var sum float64
	for _, x := range v {
		sum += float64(x * x)
	}
	if sum == 0 {
		return
	}
	inv := 1 / math.Sqrt(sum)
	for i := range v {
		v[i] *= inv
	}
}

func normalizeL1(v []float64) {
	var sum float64
	for _, x := range v {
		sum += math.Abs(x)
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
}
