// Package algo defines the graph algorithms evaluated in the paper as
// vertex programs (vprog.Program) that run unchanged on the Mixen engine
// and every baseline engine: InDegree (the canonical link-analysis SpMV),
// PageRank, Collaborative Filtering (vector-valued SpMV), and BFS (tropical
// ring). HITS and SALSA — mentioned by the paper as InDegree's descendants —
// are provided as standalone library routines.
package algo

import (
	"math"

	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// outDegrees snapshots the out-degree of every node (used for propagation
// scaling; the degree must count ALL out-edges of the original graph,
// including those into sink nodes).
func outDegrees(g *graph.Graph) []float64 {
	n := g.NumNodes()
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(g.OutDegree(graph.Node(v)))
	}
	return deg
}

// OutDegrees snapshots every node's out-degree. Serving paths that build
// many programs over one long-lived graph should take the snapshot once
// and hand it to the *Shared constructors, instead of paying an O(n)
// degree pass per request.
func OutDegrees(g *graph.Graph) []float64 { return outDegrees(g) }

// Every width-1 program below implements vprog.Ranger. Its per-node and
// range forms compute each node through one shared helper (invDeg,
// indegreeStep, rankStep, minStep), so the two cannot drift apart: a ranged
// run is bit-identical to a per-node one.

// invDeg is the degree-normalising Scale of node u: 1/deg(u), or 0 for a
// node without out-edges.
func invDeg(deg []float64, u uint32) float64 {
	if deg[u] == 0 {
		return 0
	}
	return 1 / deg[u]
}

// invDegRange writes invDeg of every node of old into out.
func invDegRange(deg []float64, old []uint32, out []float64) {
	out = out[:len(old)]
	for k, u := range old {
		out[k] = invDeg(deg, u)
	}
}

// fill sets every element of out to v.
func fill(out []float64, v float64) {
	for k := range out {
		out[k] = v
	}
}

// indegreeStep is InDegree's Apply on one node: the new value and its
// delta.
func indegreeStep(sum, prev float64) (next, d float64) {
	return sum, math.Abs(sum - prev)
}

// rankStep is the damped update of PageRank and PPR on one node: next =
// base + damping·sum, or prev with a zero delta when that moves the node by
// less than nodeTol.
func rankStep(base, damping, nodeTol, sum, prev float64) (next, d float64) {
	next = base + float64(damping*sum)
	d = math.Abs(next - prev)
	if d < nodeTol {
		return prev, 0
	}
	return next, d
}

// minStep is the Apply of the min-label programs (BFS, CC) on one node:
// min(prev, sum), with delta 1 when that changed the value and 0 otherwise.
// The builtin min compiles inline, where math.Min is a call. The two agree
// bit for bit on every value BFS and CC can hold — finite levels and
// labels, +Inf, never −0 — and differ only with a NaN operand (its
// payload, and min(−Inf, NaN), which math.Min makes −Inf).
func minStep(sum, prev float64) (next, d float64) {
	next = min(prev, sum)
	if next != prev {
		return next, 1
	}
	return next, 0
}

// minRange is minStep over a run of nodes, its deltas folded in node order.
func minRange(sum, prev, out []float64) float64 {
	sum, prev = sum[:len(out)], prev[:len(out)]
	var d float64
	for k := range out {
		var dk float64
		out[k], dk = minStep(sum[k], prev[k])
		d += dk
	}
	return d
}

// NewPageRankShared is NewPageRank with a caller-provided out-degree
// snapshot (from OutDegrees) over a graph of n nodes. The snapshot is
// shared, not copied: callers must treat it as immutable for the
// program's lifetime.
func NewPageRankShared(n int, deg []float64, damping, tol float64, iters int) *PageRank {
	p := &PageRank{
		N:       n,
		Damping: damping,
		Tol:     tol,
		Iters:   iters,
		deg:     deg,
	}
	if tol > 0 {
		p.NodeTol = tol / float64(n)
	}
	return p
}

// InDegree is the iterated InDegree/SpMV kernel y = Aᵀx of §2.2: every node
// starts at 1 and each iteration replaces a receiver's value with the sum of
// its in-neighbours' values. One iteration computes exactly the in-degree.
type InDegree struct {
	Iters int
}

// NewInDegree returns the program with a fixed iteration count (the paper
// removes convergence and runs 100 iterations).
func NewInDegree(iters int) *InDegree { return &InDegree{Iters: iters} }

// Width implements vprog.Program.
func (p *InDegree) Width() int { return 1 }

// Ring implements vprog.Program.
func (p *InDegree) Ring() vprog.Ring { return vprog.Sum }

// Init implements vprog.Program.
func (p *InDegree) Init(v uint32, out []float64) { out[0] = 1 }

// Scale implements vprog.Program.
func (p *InDegree) Scale(u uint32) float64 { return 1 }

// Apply implements vprog.Program.
func (p *InDegree) Apply(v uint32, sum, prev, out []float64) float64 {
	var d float64
	out[0], d = indegreeStep(sum[0], prev[0])
	return d
}

// InitRange implements vprog.Ranger.
func (p *InDegree) InitRange(old []uint32, out []float64) { fill(out[:len(old)], 1) }

// ScaleRange implements vprog.Ranger.
func (p *InDegree) ScaleRange(old []uint32, out []float64) { fill(out[:len(old)], 1) }

// ApplyRange implements vprog.Ranger.
func (p *InDegree) ApplyRange(old []uint32, sum, prev, out []float64) float64 {
	out = out[:len(old)]
	sum, prev = sum[:len(out)], prev[:len(out)]
	var d float64
	for k := range out {
		var dk float64
		out[k], dk = indegreeStep(sum[k], prev[k])
		d += dk
	}
	return d
}

// Converged implements vprog.Program (never: fixed iteration count).
func (p *InDegree) Converged(delta float64, iter int) bool { return false }

// MaxIter implements vprog.Program.
func (p *InDegree) MaxIter() int { return p.Iters }

// PageRank is the damped power iteration x'_v = (1-d)/n + d·Σ x_u/deg(u).
// Zero-in-degree nodes keep their initial 1/n (the shared engine contract);
// dangling mass is not redistributed, matching the SpMV formulations the
// compared frameworks use.
type PageRank struct {
	N       int
	Damping float64
	Tol     float64
	Iters   int
	// NodeTol is the per-node quiescence threshold (Ligra's PageRankDelta
	// filter): a node whose update would move it by less than NodeTol
	// keeps its previous value EXACTLY and reports a zero delta, letting
	// frontier-tracking engines retire it from the active set. 0 disables
	// the clamp (every sub-ulp wiggle keeps the node active, so
	// tolerance-converged runs see little frontier decay). The final
	// values differ from the unclamped iteration by at most
	// NodeTol/(1-damping) per node.
	NodeTol float64
	deg     []float64
}

// NewPageRank builds the program for graph g. tol <= 0 disables the
// convergence test (fixed iters iterations); tol > 0 also enables the
// per-node quiescence clamp at tol/n (set NodeTol directly to override).
func NewPageRank(g *graph.Graph, damping, tol float64, iters int) *PageRank {
	p := &PageRank{
		N:       g.NumNodes(),
		Damping: damping,
		Tol:     tol,
		Iters:   iters,
		deg:     outDegrees(g),
	}
	if tol > 0 {
		p.NodeTol = tol / float64(p.N)
	}
	return p
}

// Check implements vprog.Checker: damping in (0, 1) and a finite,
// non-negative tolerance.
func (p *PageRank) Check() error {
	return Args{N: p.N, Rank: true, Damping: p.Damping, Tol: p.Tol}.Check()
}

// Width implements vprog.Program.
func (p *PageRank) Width() int { return 1 }

// Ring implements vprog.Program.
func (p *PageRank) Ring() vprog.Ring { return vprog.Sum }

// Init implements vprog.Program: uniform 1/n (zero-in-degree nodes keep
// it, per the engine contract).
func (p *PageRank) Init(v uint32, out []float64) {
	out[0] = 1 / float64(p.N)
}

// Scale implements vprog.Program: contributions are x_u/deg(u).
func (p *PageRank) Scale(u uint32) float64 { return invDeg(p.deg, u) }

// Apply implements vprog.Program. Sub-NodeTol movements keep the previous
// value bit-for-bit and return 0, satisfying the quiescence contract while
// giving frontier-tracking engines real per-node convergence to exploit.
func (p *PageRank) Apply(v uint32, sum, prev, out []float64) float64 {
	var d float64
	out[0], d = rankStep((1-p.Damping)/float64(p.N), p.Damping, p.NodeTol, sum[0], prev[0])
	return d
}

// InitRange implements vprog.Ranger.
func (p *PageRank) InitRange(old []uint32, out []float64) {
	fill(out[:len(old)], 1/float64(p.N))
}

// ScaleRange implements vprog.Ranger.
func (p *PageRank) ScaleRange(old []uint32, out []float64) { invDegRange(p.deg, old, out) }

// ApplyRange implements vprog.Ranger.
func (p *PageRank) ApplyRange(old []uint32, sum, prev, out []float64) float64 {
	out = out[:len(old)]
	sum, prev = sum[:len(out)], prev[:len(out)]
	base, damping, nodeTol := (1-p.Damping)/float64(p.N), p.Damping, p.NodeTol
	var d float64
	for k := range out {
		var dk float64
		out[k], dk = rankStep(base, damping, nodeTol, sum[k], prev[k])
		d += dk
	}
	return d
}

// Converged implements vprog.Program.
func (p *PageRank) Converged(delta float64, iter int) bool {
	return p.Tol > 0 && delta < p.Tol
}

// MaxIter implements vprog.Program.
func (p *PageRank) MaxIter() int { return p.Iters }

// CF is the propagation kernel of ALS-style collaborative filtering, the
// "graph learning algorithm derived from the SpMV form of InDegree" of
// §6.1: every node carries a K-dimensional latent vector; each iteration a
// receiver averages its in-neighbours' vectors (degree-normalised) and
// mixes the result with its own anchor (initial) vector. Anchoring to the
// initial rather than the previous vector keeps every node's update a pure
// function of its in-neighbours, the property Mixen's deferred sink
// Post-Phase relies on (§3, "Sink nodes ... have their states determined
// solely by their in-neighbors").
type CF struct {
	K     int
	Mix   float64 // weight of the gathered average (0,1]
	Iters int
	deg   []float64
}

// NewCF builds the program with K latent dimensions.
func NewCF(g *graph.Graph, k, iters int) *CF {
	return &CF{K: k, Mix: 0.5, Iters: iters, deg: outDegrees(g)}
}

// Width implements vprog.Program.
func (p *CF) Width() int { return p.K }

// Ring implements vprog.Program.
func (p *CF) Ring() vprog.Ring { return vprog.Sum }

// Init implements vprog.Program: deterministic pseudo-random latents in
// [0,1) derived from the node id, so every engine starts identically.
func (p *CF) Init(v uint32, out []float64) {
	for l := range out {
		out[l] = hash01(uint64(v)*0x9e3779b97f4a7c15 + uint64(l))
	}
}

// Scale implements vprog.Program: degree-normalised contributions.
func (p *CF) Scale(u uint32) float64 { return invDeg(p.deg, u) }

// Apply implements vprog.Program.
func (p *CF) Apply(v uint32, sum, prev, out []float64) float64 {
	var d float64
	for l := range out {
		anchor := hash01(uint64(v)*0x9e3779b97f4a7c15 + uint64(l))
		next := float64((1-p.Mix)*anchor) + float64(p.Mix*sum[l])
		d += math.Abs(next - prev[l])
		out[l] = next
	}
	return d
}

// Converged implements vprog.Program (fixed iterations, like the paper).
func (p *CF) Converged(delta float64, iter int) bool { return false }

// MaxIter implements vprog.Program.
func (p *CF) MaxIter() int { return p.Iters }

// hash01 maps a 64-bit value to [0,1) via splitmix64 finalisation.
func hash01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// BFS is breadth-first search as a tropical-ring vertex program: levels
// propagate as min(level_u + 1) until no label changes. It exercises none
// of Mixen's Cache-step machinery (the paper includes it as the
// non-link-analysis control).
type BFS struct {
	Source   uint32
	MaxIters int
}

// NewBFS builds the program. maxIters <= 0 uses a safe bound of n.
func NewBFS(g *graph.Graph, source uint32) *BFS {
	return &BFS{Source: source, MaxIters: g.NumNodes() + 1}
}

// NewBFSN is NewBFS for serving paths that know only the node count (e.g.
// a mapped partition without the original graph): the graph is used solely
// for the iteration bound.
func NewBFSN(n int, source uint32) *BFS {
	return &BFS{Source: source, MaxIters: n + 1}
}

// Width implements vprog.Program.
func (p *BFS) Width() int { return 1 }

// Ring implements vprog.Program.
func (p *BFS) Ring() vprog.Ring { return vprog.Min }

// level is node v's initial level: 0 at the source, +Inf elsewhere.
func (p *BFS) level(v uint32) float64 {
	if v == p.Source {
		return 0
	}
	return math.Inf(1)
}

// Init implements vprog.Program.
func (p *BFS) Init(v uint32, out []float64) { out[0] = p.level(v) }

// Scale implements vprog.Program: the tropical offset (+1 hop).
func (p *BFS) Scale(u uint32) float64 { return 1 }

// Apply implements vprog.Program.
func (p *BFS) Apply(v uint32, sum, prev, out []float64) float64 {
	var d float64
	out[0], d = minStep(sum[0], prev[0])
	return d
}

// InitRange implements vprog.Ranger.
func (p *BFS) InitRange(old []uint32, out []float64) {
	out = out[:len(old)]
	for k, v := range old {
		out[k] = p.level(v)
	}
}

// ScaleRange implements vprog.Ranger.
func (p *BFS) ScaleRange(old []uint32, out []float64) { fill(out[:len(old)], 1) }

// ApplyRange implements vprog.Ranger.
func (p *BFS) ApplyRange(old []uint32, sum, prev, out []float64) float64 {
	return minRange(sum, prev, out[:len(old)])
}

// MinApply implements vprog.MinApplier: Apply is min(prev, sum).
func (p *BFS) MinApply() {}

// Converged implements vprog.Program: stop when no label changed.
func (p *BFS) Converged(delta float64, iter int) bool { return delta == 0 }

// MaxIter implements vprog.Program.
func (p *BFS) MaxIter() int { return p.MaxIters }

// CC labels weakly-connected components by min-label propagation over the
// tropical ring (with a zero hop offset, propagation is pure min). Each
// node starts with its own id as label; at convergence every node holds the
// smallest id reachable along directed paths into it. On undirected graphs
// this yields connected components; on directed graphs, run it over
// g plus its transpose (see ConnectedComponents) for the weak components.
type CC struct {
	MaxIters int
}

// NewCC builds the min-label propagation program.
func NewCC(g *graph.Graph) *CC { return &CC{MaxIters: g.NumNodes() + 1} }

// Width implements vprog.Program.
func (p *CC) Width() int { return 1 }

// Ring implements vprog.Program.
func (p *CC) Ring() vprog.Ring { return vprog.Min }

// Init implements vprog.Program.
func (p *CC) Init(v uint32, out []float64) { out[0] = float64(v) }

// Scale implements vprog.Program: labels travel unchanged (offset 0).
func (p *CC) Scale(u uint32) float64 { return 0 }

// Apply implements vprog.Program.
func (p *CC) Apply(v uint32, sum, prev, out []float64) float64 {
	var d float64
	out[0], d = minStep(sum[0], prev[0])
	return d
}

// InitRange implements vprog.Ranger.
func (p *CC) InitRange(old []uint32, out []float64) {
	out = out[:len(old)]
	for k, v := range old {
		out[k] = float64(v)
	}
}

// ScaleRange implements vprog.Ranger.
func (p *CC) ScaleRange(old []uint32, out []float64) { fill(out[:len(old)], 0) }

// ApplyRange implements vprog.Ranger.
func (p *CC) ApplyRange(old []uint32, sum, prev, out []float64) float64 {
	return minRange(sum, prev, out[:len(old)])
}

// MinApply implements vprog.MinApplier: Apply is min(prev, sum).
func (p *CC) MinApply() {}

// Converged implements vprog.Program.
func (p *CC) Converged(delta float64, iter int) bool { return delta == 0 }

// MaxIter implements vprog.Program.
func (p *CC) MaxIter() int { return p.MaxIters }

// ConnectedComponents computes weakly-connected component labels using the
// given engine constructor, symmetrizing the graph first so that label
// propagation crosses edges in both directions. The constructor receives
// the symmetrized graph and must return an engine over it.
func ConnectedComponents(g *graph.Graph, makeEngine func(*graph.Graph) (vprog.Engine, error)) ([]float64, error) {
	sym, err := symmetrize(g)
	if err != nil {
		return nil, err
	}
	e, err := makeEngine(sym)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(NewCC(sym))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// symmetrize returns g with every edge mirrored.
func symmetrize(g *graph.Graph) (*graph.Graph, error) {
	edges := g.Edges()
	both := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	return graph.FromEdges(g.NumNodes(), both)
}

// FrontierBFSer is implemented by engines with a native sparse-frontier BFS
// (the Ligra-like push engine). RunBFS prefers it when available.
type FrontierBFSer interface {
	RunFrontierBFS(source uint32, maxIter int) (*vprog.Result, error)
}

// RunBFS runs BFS from source on e, dispatching to the engine's native
// frontier implementation when it has one and to the tropical vertex
// program otherwise — mirroring how each paper framework actually executes
// BFS.
func RunBFS(e vprog.Engine, g *graph.Graph, source uint32) (*vprog.Result, error) {
	if fr, ok := e.(FrontierBFSer); ok {
		return fr.RunFrontierBFS(source, 0)
	}
	return e.Run(NewBFS(g, source))
}
