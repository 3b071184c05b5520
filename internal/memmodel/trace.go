package memmodel

import (
	"mixen/internal/block"
	"mixen/internal/core"
	"mixen/internal/graph"
)

// arena assigns disjoint, page-aligned synthetic address ranges to the
// arrays a traced kernel touches, so cache-set conflicts behave as they
// would for separately allocated slices.
type arena struct{ next uint64 }

func newArena() *arena { return &arena{next: 1 << 20} }

func (a *arena) alloc(bytes int64) uint64 {
	const align = 4096
	base := a.next
	a.next += (uint64(bytes) + align - 1) / align * align
	a.next += align // guard page between arrays
	return base
}

const (
	szF = 8 // float64 property
	szU = 4 // uint32 node id
	szP = 8 // int64 CSR pointer
)

// TraceResult pairs the simulated counters with the computed output so
// tests can verify the trace executes the real algorithm.
type TraceResult struct {
	Levels              []LevelStats
	MemReads, MemWrites int64
	TrafficBytes        int64
	// Y is the computed output vector (one InDegree iteration), used to
	// cross-check the trace against the real engines.
	Y []float64
}

func finish(h *Hierarchy, y []float64) *TraceResult {
	h.Flush()
	return &TraceResult{
		Levels:       h.Stats(),
		MemReads:     h.MemReads,
		MemWrites:    h.MemWrites,
		TrafficBytes: h.MemTrafficBytes(),
		Y:            y,
	}
}

// TracePull replays the memory reference stream of one pulling-flow
// InDegree iteration (Algorithm 1, lines 5-7): sequential CSC scan,
// random reads of x, sequential writes of y.
func TracePull(g *graph.Graph, x []float64, h *Hierarchy) *TraceResult {
	return TracePullIters(g, x, h, 1)
}

// TracePullIters replays iters pulling-flow iterations over a persistent
// cache state, capturing steady-state behaviour (the paper measures 100
// iterations, so warm-cache reuse across iterations is part of the
// signal). Output arrays swap roles between iterations like the real
// engine's x/y swap.
func TracePullIters(g *graph.Graph, x []float64, h *Hierarchy, iters int) *TraceResult {
	n := g.NumNodes()
	a := newArena()
	basePtr := a.alloc(int64(n+1) * szP)
	baseIdx := a.alloc(g.NumEdges() * szU)
	baseA := a.alloc(int64(n) * szF)
	baseB := a.alloc(int64(n) * szF)
	cur := append([]float64(nil), x...)
	next := make([]float64, n)
	baseX, baseY := baseA, baseB
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			h.Read(basePtr+uint64(v)*szP, 2*szP) // ptr[v], ptr[v+1]
			lo, hi := g.InPtr[v], g.InPtr[v+1]
			var sum float64
			for e := lo; e < hi; e++ {
				u := g.InIdx[e]
				h.Read(baseIdx+uint64(e)*szU, szU)
				h.Read(baseX+uint64(u)*szF, szF) // the random read
				sum += cur[u]
			}
			if hi > lo {
				next[v] = sum
				h.Write(baseY+uint64(v)*szF, szF)
			} else {
				next[v] = cur[v]
			}
		}
		cur, next = next, cur
		baseX, baseY = baseY, baseX
	}
	return finish(h, cur)
}

// blockAddrs precomputes base addresses for a partition's arrays.
type blockAddrs struct {
	srcs, dst, vals []uint64
}

func allocPartitionW(a *arena, p *block.Partition, w int) blockAddrs {
	ba := blockAddrs{
		srcs: make([]uint64, len(p.Blocks)),
		dst:  make([]uint64, len(p.Blocks)),
		vals: make([]uint64, len(p.Blocks)),
	}
	for i, sb := range p.Blocks {
		ba.srcs[i] = a.alloc(int64(len(sb.Srcs)) * szU)
		ba.dst[i] = a.alloc(int64(len(sb.Dst)) * szU)
		ba.vals[i] = a.alloc(int64(len(sb.Srcs)) * szF * int64(w))
	}
	return ba
}

// blockIndexOf maps sub-blocks to their position in p.Blocks.
func blockIndexOf(p *block.Partition) map[*block.SubBlock]int {
	idx := make(map[*block.SubBlock]int, len(p.Blocks))
	for i, sb := range p.Blocks {
		idx[sb] = i
	}
	return idx
}

// traceGAS replays scatter+gather over a partition for iters iterations
// with persistent cache state. If sta is non-nil the Cache step (y segment
// <- sta) replaces zero initialisation, reproducing Mixen's SCGA;
// otherwise plain GAS semantics are traced. Returns the final x over
// [0, p.R).
//
// w is the property width: every float access (x, y, sta, bins) covers w
// lanes — w·szF bytes at a w-scaled address — while the index arrays
// (srcs, dst, CSR pointers) are read once regardless of w.
// That asymmetry is exactly the amortization a fused width-w batch of w
// scalar queries exploits. The simulated arithmetic stays scalar (lanes of
// a fused batch of one query are identical), so the returned vector still
// cross-checks the trace against the real engines.
func traceGAS(p *block.Partition, x, sta []float64, receivers []bool, h *Hierarchy, iters, w int) []float64 {
	a := newArena()
	ba := allocPartitionW(a, p, w)
	wF := uint64(w) * szF
	baseA := a.alloc(int64(p.R) * szF * int64(w))
	baseB := a.alloc(int64(p.R) * szF * int64(w))
	baseSta := uint64(0)
	if sta != nil {
		baseSta = a.alloc(int64(p.R) * szF * int64(w))
	}
	basePtr := a.alloc(int64(p.R+1) * szP)
	bi := blockIndexOf(p)
	cur := append([]float64(nil), x[:p.R]...)
	next := make([]float64, p.R)
	baseX, baseY := baseA, baseB
	// The partition is read-only; the simulator keeps its own (serial)
	// dynamic-bin values, one scalar slot per compressed entry.
	vals := make([][]float64, len(p.Blocks))
	for i, sb := range p.Blocks {
		vals[i] = make([]float64, len(sb.Srcs))
	}

	for it := 0; it < iters; it++ {
		// Scatter: per sub-block, read source ids + x, write vals.
		for _, sb := range p.Blocks {
			i := bi[sb]
			for k, s := range sb.Srcs {
				h.Read(ba.srcs[i]+uint64(k)*szU, szU)
				h.Read(baseX+uint64(s)*wF, w*szF)
				h.Write(ba.vals[i]+uint64(k)*wF, w*szF)
				vals[i][k] = cur[s]
			}
		}
		// Cache (Mixen) or zero-init (GAS): stream the y segments.
		if sta != nil {
			for v := 0; v < p.R; v++ {
				h.Read(baseSta+uint64(v)*wF, w*szF)
				h.Write(baseY+uint64(v)*wF, w*szF)
				next[v] = sta[v]
			}
		} else {
			// Plain GAS zero-inits only receivers (checked against the
			// in-edge pointer array); non-receivers carry their values.
			for v := 0; v < p.R; v++ {
				h.Read(basePtr+uint64(v)*szP, 2*szP)
				if receivers == nil || receivers[v] {
					h.Write(baseY+uint64(v)*wF, w*szF)
					next[v] = 0
				} else {
					next[v] = cur[v]
				}
			}
		}
		// Gather: per block-column, read vals + dst ids, accumulate into y.
		for j := 0; j < p.B; j++ {
			for _, sb := range p.Cols[j] {
				i := bi[sb]
				// The flagged stream, as Gather walks it: a run start reads
				// the next bin value, every element one destination id.
				k := -1
				for e, d := range sb.Dst {
					h.Read(ba.dst[i]+uint64(e)*szU, szU)
					if d&block.RunStart != 0 {
						k++
						h.Read(ba.vals[i]+uint64(k)*wF, w*szF)
					}
					d &= block.DstMask
					h.Read(baseY+uint64(d)*wF, w*szF)
					h.Write(baseY+uint64(d)*wF, w*szF)
					next[d] += vals[i][k]
				}
			}
		}
		cur, next = next, cur
		baseX, baseY = baseY, baseX
	}
	return cur
}

// TraceBlockGAS replays one GPOP-like blocked InDegree iteration over the
// full graph.
func TraceBlockGAS(g *graph.Graph, x []float64, side int, h *Hierarchy) (*TraceResult, error) {
	return TraceBlockGASIters(g, x, side, h, 1)
}

// TraceBlockGASIters replays iters iterations with persistent cache state.
func TraceBlockGASIters(g *graph.Graph, x []float64, side int, h *Hierarchy, iters int) (*TraceResult, error) {
	p, err := block.NewPartition(g.OutPtr, g.OutIdx, g.NumNodes(), block.Config{Side: side, MaxLoadFactor: 2})
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	receivers := make([]bool, n)
	for v := 0; v < n; v++ {
		receivers[v] = g.InDegree(graph.Node(v)) > 0
	}
	y := traceGAS(p, x, nil, receivers, h, iters, 1)
	return finish(h, y), nil
}

// TraceMixen replays one Mixen SCGA InDegree iteration: the filtered
// regular submatrix with the Cache step fed by the seed static bins. The
// engine must already be constructed (its filtered form and partition are
// reused), and x must be in NEW id order covering all n nodes.
func TraceMixen(e *core.Engine, xNew []float64, h *Hierarchy) *TraceResult {
	return TraceMixenIters(e, xNew, h, 1)
}

// TraceMixenIters replays iters Main-Phase iterations with persistent
// cache state (steady-state behaviour).
func TraceMixenIters(e *core.Engine, xNew []float64, h *Hierarchy, iters int) *TraceResult {
	f := e.F
	p := e.P
	r := f.NumRegular
	// Static bins: seed contributions (computed, not traced — the paper's
	// Fig 5 instruments the iterative Main-Phase, and the Pre-Phase runs
	// once per execution).
	sta := make([]float64, r)
	for i := 0; i < f.NumSeed; i++ {
		u := f.NumRegular + i
		for _, d := range f.SeedIdx[f.SeedPtr[i]:f.SeedPtr[i+1]] {
			sta[d] += xNew[u]
		}
	}
	y := traceGAS(p, xNew[:r], sta, nil, h, iters, 1)
	return finish(h, y)
}

// TraceMixenWidth replays one width-w Mixen Main-Phase iteration — the
// reference stream of a fused batch of w scalar queries sharing one SCGA
// pass.
func TraceMixenWidth(e *core.Engine, xNew []float64, w int, h *Hierarchy) *TraceResult {
	return TraceMixenWidthIters(e, xNew, w, h, 1)
}

// TraceMixenWidthIters replays iters width-w Main-Phase iterations with
// persistent cache state. The stream is TraceMixenIters with every
// property access widened to w lanes while index traffic stays constant;
// dividing the resulting TrafficBytes by w gives the per-query cost of a
// width-w batch, which falls monotonically in w — the memory-system case
// for batched serving.
func TraceMixenWidthIters(e *core.Engine, xNew []float64, w int, h *Hierarchy, iters int) *TraceResult {
	f := e.F
	p := e.P
	r := f.NumRegular
	sta := make([]float64, r)
	for i := 0; i < f.NumSeed; i++ {
		u := f.NumRegular + i
		for _, d := range f.SeedIdx[f.SeedPtr[i]:f.SeedPtr[i+1]] {
			sta[d] += xNew[u]
		}
	}
	y := traceGAS(p, xNew[:r], sta, nil, h, iters, w)
	return finish(h, y)
}
