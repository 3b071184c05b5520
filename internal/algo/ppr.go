package algo

import (
	"context"

	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// PersonalizedPageRank is damped PageRank with a personalized teleport
// distribution: x'_v = (1-d)·t_v + d·Σ x_u/deg(u), where t is a point
// mass at Source (or an arbitrary distribution via Teleport). It is the
// canonical batched-serving query: K personalizations share the ring and
// the per-source Scale (1/deg), so K queries fuse into one width-K pass
// (vprog.NewBatch / core.Batcher).
type PersonalizedPageRank struct {
	N       int
	Source  uint32
	Damping float64
	Tol     float64
	Iters   int
	// Teleport optionally replaces the point mass at Source with a full
	// distribution (len n). Entries should sum to 1.
	Teleport []float64
	// NodeTol is the per-node quiescence threshold (see algo.PageRank):
	// sub-NodeTol updates keep the previous value exactly and report a
	// zero delta. 0 disables the clamp.
	NodeTol float64
	deg     []float64
}

// NewPersonalizedPageRank builds the program for graph g with a point-mass
// teleport at source. tol <= 0 disables the convergence test; tol > 0 also
// enables the per-node quiescence clamp at tol/n.
func NewPersonalizedPageRank(g *graph.Graph, source uint32, damping, tol float64, iters int) *PersonalizedPageRank {
	p := &PersonalizedPageRank{
		N:       g.NumNodes(),
		Source:  source,
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

// NewPersonalizedPageRankShared is NewPersonalizedPageRank with a
// caller-provided out-degree snapshot (from OutDegrees) over a graph of n
// nodes, for serving paths that build one program per request. The
// snapshot is shared, not copied.
func NewPersonalizedPageRankShared(n int, deg []float64, source uint32, damping, tol float64, iters int) *PersonalizedPageRank {
	p := &PersonalizedPageRank{
		N:       n,
		Source:  source,
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

// PersonalizedPageRankSet builds one program per source, all sharing a
// single out-degree snapshot (so K queries cost one degree pass) — the
// per-query inputs of a fused batch run.
func PersonalizedPageRankSet(g *graph.Graph, sources []uint32, damping, tol float64, iters int) []vprog.Program {
	deg := outDegrees(g)
	progs := make([]vprog.Program, len(sources))
	for i, s := range sources {
		pp := &PersonalizedPageRank{
			N:       g.NumNodes(),
			Source:  s,
			Damping: damping,
			Tol:     tol,
			Iters:   iters,
			deg:     deg,
		}
		if tol > 0 {
			pp.NodeTol = tol / float64(pp.N)
		}
		progs[i] = pp
	}
	return progs
}

func (p *PersonalizedPageRank) teleport(v uint32) float64 {
	if p.Teleport != nil {
		return p.Teleport[v]
	}
	if v == p.Source {
		return 1
	}
	return 0
}

// Check implements vprog.Checker: a source below N, damping in (0, 1)
// and a finite, non-negative tolerance.
func (p *PersonalizedPageRank) Check() error {
	return Args{N: p.N, Sources: []uint32{p.Source}, Rank: true, Damping: p.Damping, Tol: p.Tol}.Check()
}

// Width implements vprog.Program.
func (p *PersonalizedPageRank) Width() int { return 1 }

// Ring implements vprog.Program.
func (p *PersonalizedPageRank) Ring() vprog.Ring { return vprog.Sum }

// Init implements vprog.Program: mass starts on the teleport distribution
// (zero-in-degree nodes keep it, mirroring PageRank's engine contract).
func (p *PersonalizedPageRank) Init(v uint32, out []float64) {
	out[0] = p.teleport(v)
}

// Scale implements vprog.Program: contributions are x_u/deg(u), identical
// for every personalization — the property that makes PPR batchable.
func (p *PersonalizedPageRank) Scale(u uint32) float64 { return invDeg(p.deg, u) }

// base is node v's teleport term (1-damping)·t_v.
func (p *PersonalizedPageRank) base(v uint32) float64 {
	return float64((1 - p.Damping) * p.teleport(v))
}

// Apply implements vprog.Program. Sub-NodeTol movements keep the previous
// value bit-for-bit and return 0 (per-node quiescence, see algo.PageRank).
func (p *PersonalizedPageRank) Apply(v uint32, sum, prev, out []float64) float64 {
	var d float64
	out[0], d = rankStep(p.base(v), p.Damping, p.NodeTol, sum[0], prev[0])
	return d
}

// InitRange implements vprog.Ranger.
func (p *PersonalizedPageRank) InitRange(old []uint32, out []float64) {
	out = out[:len(old)]
	for k, v := range old {
		out[k] = p.teleport(v)
	}
}

// ScaleRange implements vprog.Ranger.
func (p *PersonalizedPageRank) ScaleRange(old []uint32, out []float64) {
	invDegRange(p.deg, old, out)
}

// ApplyRange implements vprog.Ranger.
func (p *PersonalizedPageRank) ApplyRange(old []uint32, sum, prev, out []float64) float64 {
	out = out[:len(old)]
	sum, prev = sum[:len(out)], prev[:len(out)]
	damping, nodeTol := p.Damping, p.NodeTol
	var d float64
	for k, v := range old {
		var dk float64
		out[k], dk = rankStep(p.base(v), damping, nodeTol, sum[k], prev[k])
		d += dk
	}
	return d
}

// Converged implements vprog.Program.
func (p *PersonalizedPageRank) Converged(delta float64, iter int) bool {
	return p.Tol > 0 && delta < p.Tol
}

// MaxIter implements vprog.Program.
func (p *PersonalizedPageRank) MaxIter() int { return p.Iters }

// RunBatch fuses progs into one width-ΣWᵢ program, executes it as a single
// pass on e (any engine), and demuxes the per-query results in submission
// order. n is the graph's node count.
func RunBatch(e vprog.Engine, n int, progs ...vprog.Program) ([]*vprog.Result, error) {
	return RunBatchCtx(context.Background(), e, n, progs...)
}

// RunBatchCtx is RunBatch under a context: the fused pass is cancelled
// cooperatively when e implements vprog.ContextRunner (the Mixen engine),
// and the ctx is checked at entry otherwise.
func RunBatchCtx(ctx context.Context, e vprog.Engine, n int, progs ...vprog.Program) ([]*vprog.Result, error) {
	b, err := vprog.NewBatch(n, progs...)
	if err != nil {
		return nil, err
	}
	res, err := vprog.RunCtx(ctx, e, b)
	if err != nil {
		return nil, err
	}
	return b.Split(res)
}

// PersonalizedPageRankBatch answers K personalized-PageRank queries (one
// per source) in a single fused width-K pass over e.
func PersonalizedPageRankBatch(e vprog.Engine, g *graph.Graph, sources []uint32, damping, tol float64, iters int) ([]*vprog.Result, error) {
	return RunBatch(e, g.NumNodes(), PersonalizedPageRankSet(g, sources, damping, tol, iters)...)
}

// MultiSourceBFS answers K BFS reachability queries (one per source) in a
// single fused width-K pass over e, on the tropical ring.
func MultiSourceBFS(e vprog.Engine, g *graph.Graph, sources []uint32) ([]*vprog.Result, error) {
	progs := make([]vprog.Program, len(sources))
	for i, s := range sources {
		progs[i] = NewBFS(g, s)
	}
	return RunBatch(e, g.NumNodes(), progs...)
}
