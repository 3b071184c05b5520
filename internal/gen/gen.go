// Package gen provides from-scratch graph generators used to synthesize
// laptop-scale stand-ins for the paper's eight evaluation datasets.
//
// Real datasets (weibo, track, wiki, pld) cannot be shipped; instead the
// Skewed generator reproduces their published structural parameters — the
// regular/seed/sink/isolated class mix, hub concentration (Table 1) and the
// α/β values (Table 2) — which are exactly the quantities Mixen's design and
// the paper's performance model depend on. rmat/kron/urand/road are built
// with the same generative models the paper's sources used (R-MAT, Graph500
// Kronecker, uniform random, road-like grid).
package gen

import (
	"fmt"
	"math/rand"
	"sync"

	"mixen/internal/graph"
	"mixen/internal/sched"
)

// RMATConfig parameterizes the recursive matrix generator of Chakrabarti,
// Zhan and Faloutsos. Probabilities A+B+C+D must sum to 1.
type RMATConfig struct {
	Scale      int     // number of nodes = 2^Scale
	EdgeFctr   int     // number of edges = EdgeFctr * n
	A, B, C, D float64 // quadrant probabilities
	Seed       int64
	Symmetric  bool // emit both directions (Graph500 Kronecker style)
}

// GAPRMATConfig returns the GAP benchmark suite's default R-MAT parameters
// (a=0.57, b=c=0.19, d=0.05) at the given scale.
func GAPRMATConfig(scale, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFctr: edgeFactor, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed}
}

// RMAT generates a directed power-law graph via recursive quadrant descent.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if cfg.Scale < 0 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: rmat scale %d out of range [0,30]", cfg.Scale)
	}
	if cfg.EdgeFctr < 0 {
		return nil, fmt.Errorf("gen: rmat edge factor %d negative", cfg.EdgeFctr)
	}
	if s := cfg.A + cfg.B + cfg.C + cfg.D; s < 0.999 || s > 1.001 {
		return nil, fmt.Errorf("gen: rmat probabilities sum to %v, want 1", s)
	}
	n := 1 << cfg.Scale
	m := cfg.EdgeFctr * n
	count := m
	if cfg.Symmetric {
		count = m / 2
	}
	// Each edge consumes exactly 5·Scale draws of one math/rand Float64
	// stream, in edge order. The stream is drawn sequentially a chunk at a
	// time, the next chunk while the cores turn the current one into edges.
	per := 5 * cfg.Scale
	emit := 1
	if cfg.Symmetric {
		emit = 2
	}
	edges := make([]graph.Edge, emit*count)
	chunk := min(count, rmatChunk)
	draws := [2][]float64{make([]float64, chunk*per), make([]float64, chunk*per)}
	st := newFloatStream(cfg.Seed)
	st.fill(draws[0])
	for lo := 0; lo < count; lo += chunk {
		hi := min(lo+chunk, count)
		buf := draws[(lo/chunk)&1][:(hi-lo)*per]
		var next sync.WaitGroup
		if hi < count {
			nb := draws[(lo/chunk+1)&1][:(min(hi+chunk, count)-hi)*per]
			next.Add(1)
			go func() {
				defer next.Done()
				st.fill(nb)
			}()
		}
		sched.ForRange(hi-lo, sched.DefaultThreads(), 256, func(a, b int) {
			for i := a; i < b; i++ {
				src, dst := rmatEdge(buf[i*per:(i+1)*per], cfg)
				if cfg.Symmetric {
					edges[2*(lo+i)] = graph.Edge{Src: src, Dst: dst}
					edges[2*(lo+i)+1] = graph.Edge{Src: dst, Dst: src}
				} else {
					edges[lo+i] = graph.Edge{Src: src, Dst: dst}
				}
			}
		})
		next.Wait()
	}
	return graph.FromEdges(n, edges)
}

// rmatChunk is the number of edges whose draws RMAT buffers at once.
const rmatChunk = 1 << 12

// rmatEdge draws one edge by descending Scale levels of the quadrant tree,
// reading its 5·Scale uniform draws from r: per level, one picks the
// quadrant and four noise the probabilities. Per the original paper,
// quadrant probabilities are noised a little at each level to avoid exact
// self-similarity artifacts.
func rmatEdge(r []float64, cfg RMATConfig) (graph.Node, graph.Node) {
	var row, col uint32
	a, b, c := cfg.A, cfg.B, cfg.C
	for level := 0; level < cfg.Scale; level++ {
		d := r[5*level : 5*level+5]
		switch x := d[0]; {
		case x < a:
			// top-left: no bits set
		case x < a+b:
			col |= 1 << level
		case x < a+b+c:
			row |= 1 << level
		default:
			row |= 1 << level
			col |= 1 << level
		}
		// multiplicative noise in [0.95, 1.05], renormalized implicitly by
		// comparing against the running prefix sums next level
		a2, b2, c2, d2 := rmatNoise(cfg.A, d[1]), rmatNoise(cfg.B, d[2]), rmatNoise(cfg.C, d[3]), rmatNoise(cfg.D, d[4])
		total := a2 + b2 + c2 + d2
		a, b, c = a2/total, b2/total, c2/total
	}
	return row, col
}

// rmatNoise scales p by 0.95 + 0.1·f; the product rounds on its own, so no
// architecture fuses it into the sum.
func rmatNoise(p, f float64) float64 { return p * (0.95 + float64(0.1*f)) }

// floatStream yields exactly the values math/rand's Rand.Float64 yields for
// rand.New(rand.NewSource(seed)), without an interface call per draw. The
// source is an additive lagged Fibonacci generator, x_n = x_{n-607} +
// x_{n-273} (mod 2^64), whose whole state is its last 607 outputs: the
// stream primes a ring with the source's first 607 Uint64 draws, emits
// them, then continues the recurrence inline. Float64 is Int63 (the low 63
// bits) over 2^63, redrawn when that rounds to 1.
type floatStream struct {
	ring  [lfgLen]uint64
	i, j  int // slots of x_{n-607} and x_{n-273} for the next output
	fresh int // primed outputs not yet emitted
}

const (
	lfgLen = 607
	lfgTap = 273
)

func newFloatStream(seed int64) *floatStream {
	src := rand.NewSource(seed).(rand.Source64)
	s := &floatStream{j: lfgLen - lfgTap, fresh: lfgLen}
	for k := range s.ring {
		s.ring[k] = src.Uint64()
	}
	return s
}

// fill writes the next len(buf) values of the stream into buf.
func (s *floatStream) fill(buf []float64) {
	k := 0
	for ; s.fresh > 0 && k < len(buf); s.fresh-- {
		if f := lfgFloat(s.ring[lfgLen-s.fresh]); f != 1 {
			buf[k] = f
			k++
		}
	}
	ring := &s.ring
	i, j := s.i, s.j
	for k < len(buf) {
		// A stretch in which neither slot wraps: each draw yields at most
		// one value, so it cannot overrun buf.
		run := min(lfgLen-i, lfgLen-j, len(buf)-k)
		ri, rj := ring[i:i+run], ring[j:j+run]
		rj = rj[:len(ri)]
		for t := range ri {
			x := ri[t] + rj[t]
			ri[t] = x
			if f := lfgFloat(x); f != 1 {
				buf[k] = f
				k++
			}
		}
		if i += run; i == lfgLen {
			i = 0
		}
		if j += run; j == lfgLen {
			j = 0
		}
	}
	s.i, s.j = i, j
}

// lfgFloat is Rand.Float64 of one source output: Int63 over 2^63.
func lfgFloat(x uint64) float64 { return float64(int64(x&(1<<63-1))) / (1 << 63) }

// Kronecker generates an undirected (symmetrized) power-law graph following
// the Graph500 / GAP "kron" recipe, which is an R-MAT with symmetric output.
func Kronecker(scale, edgeFactor int, seed int64) (*graph.Graph, error) {
	cfg := GAPRMATConfig(scale, edgeFactor, seed)
	cfg.Symmetric = true
	return RMAT(cfg)
}

// URand generates an undirected uniform-random (Erdős–Rényi G(n,m)-style)
// graph: m directed edges as m/2 undirected pairs with uniformly random
// endpoints, matching GAP's "urand".
func URand(n int, m int64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: urand n=%d must be positive", n)
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := m / 2
	edges := make([]graph.Edge, 0, 2*pairs)
	for i := int64(0); i < pairs; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		edges = append(edges, graph.Edge{Src: u, Dst: v}, graph.Edge{Src: v, Dst: u})
	}
	return graph.FromEdges(n, edges)
}

// RoadConfig parameterizes the road-network stand-in: a rows×cols 2-D grid
// with bidirected edges, where each undirected grid edge is independently
// dropped with probability Drop. Dropping edges produces the degree variance
// a real road network has (the paper's road graph has ~50% of nodes above
// average degree).
type RoadConfig struct {
	Rows, Cols int
	Drop       float64
	Seed       int64
}

// SmallWorld generates a Watts–Strogatz small-world graph: n nodes on a
// ring, each connected to its k nearest neighbours on both sides
// (bidirected), with every undirected edge rewired to a uniformly random
// endpoint with probability beta. beta=0 gives a regular lattice (high
// clustering, long paths); beta=1 approaches a random graph.
func SmallWorld(n, k int, beta float64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: smallworld n=%d must be positive", n)
	}
	if k < 1 || 2*k >= n {
		return nil, fmt.Errorf("gen: smallworld k=%d out of range for n=%d", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: smallworld beta=%v out of [0,1]", beta)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 2*n*k)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if beta > 0 && rng.Float64() < beta {
				// Rewire to a random non-self endpoint.
				v = rng.Intn(n)
				for v == u {
					v = rng.Intn(n)
				}
			}
			edges = append(edges,
				graph.Edge{Src: graph.Node(u), Dst: graph.Node(v)},
				graph.Edge{Src: graph.Node(v), Dst: graph.Node(u)})
		}
	}
	return graph.FromEdges(n, edges)
}

// Road generates the road-like grid.
func Road(cfg RoadConfig) (*graph.Graph, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("gen: road grid %dx%d invalid", cfg.Rows, cfg.Cols)
	}
	if cfg.Drop < 0 || cfg.Drop >= 1 {
		return nil, fmt.Errorf("gen: road drop probability %v out of [0,1)", cfg.Drop)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows * cfg.Cols
	edges := make([]graph.Edge, 0, 4*n)
	id := func(r, c int) graph.Node { return graph.Node(r*cfg.Cols + c) }
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols && rng.Float64() >= cfg.Drop {
				edges = append(edges,
					graph.Edge{Src: id(r, c), Dst: id(r, c+1)},
					graph.Edge{Src: id(r, c+1), Dst: id(r, c)})
			}
			if r+1 < cfg.Rows && rng.Float64() >= cfg.Drop {
				edges = append(edges,
					graph.Edge{Src: id(r, c), Dst: id(r+1, c)},
					graph.Edge{Src: id(r+1, c), Dst: id(r, c)})
			}
		}
	}
	return graph.FromEdges(n, edges)
}
