package vprog

import (
	"fmt"
	"sync/atomic"
)

// PostPhaser is an optional Program extension. Engines that defer part of
// the Apply work past the main iteration loop (Mixen evaluates sink nodes
// once in its Post-Phase) notify the program when the main loop has ended,
// so stateful wrappers such as Batch can tell the one-shot deferred
// evaluation apart from a regular iteration. Engines without a deferred
// phase never call it.
type PostPhaser interface {
	EnterPostPhase()
}

// Batch fuses K independent Programs over the same ring into one
// width-ΣWᵢ Program, so K concurrent queries (personalized PageRanks,
// multi-source BFS, CF models) cost ONE sweep over the graph topology
// instead of K: the engine streams every edge/bin/index array once and
// carries all K lanes through it. This is the same amortization the
// engine's binning already performs within a run, applied across runs.
//
// Contract. All fused programs must share the Ring AND the per-node Scale
// function (the engine propagates one scale factor per source for all
// lanes). Ring mismatches are rejected by NewBatch; Scale disagreements
// cannot fail fast — they are detected during engine setup and surface as
// an error from Split.
//
// Per-lane convergence. Each lane tracks its own convergence delta: Apply
// records the per-node delta of every unfrozen lane, and after each
// iteration the engine's Converged call (coordinating goroutine) folds
// them in ascending node order and asks the lane's own Converged/MaxIter.
// A converged lane FREEZES: its values stop changing (Apply copies the
// previous value through) and it contributes zero to the remaining delta,
// so its demuxed result is bit-identical to the same query run alone —
// batching composition never changes a query's answer. The fused run ends
// when every lane has frozen.
//
// A Batch holds per-run state: use it for one engine run at a time, and
// call Reset before reusing it for another run. Split demuxes the fused
// Result into per-query Results (copying values, so the fused Result may
// alias a reusable workspace buffer).
type Batch struct {
	progs []Program
	ring  Ring
	n     int
	width int
	// offs[i] is the first lane of program i; offs[K] == width.
	offs    []int
	maxIter int

	// Per-run state, owned by the engine's coordinating goroutine except
	// where noted.
	frozen     []bool    // lane converged; read by Apply workers after a sched barrier
	stopIter   []int     // iteration count at which each lane froze
	finalDelta []float64 // each lane's delta at its last unfrozen iteration
	// laneDelta[v*K+i] is node v's last Apply delta in lane i, written by
	// Apply on disjoint nodes. Node-major layout: Apply writes K adjacent
	// slots per node, and Converged folds all lanes in ONE sequential scan.
	laneDelta []float64
	post      bool // the engine's deferred post-phase has begun

	// Scale-mismatch detection (engine setup calls Scale concurrently).
	scaleMismatch atomic.Bool
	mismatchNode  atomic.Uint32
}

// NewBatch fuses progs (at least one) over a graph of n nodes. All
// programs must use the same ring; widths may differ (the fused width is
// the sum). The per-node Scale functions must agree — violations are
// reported by Split after the run.
func NewBatch(n int, progs ...Program) (*Batch, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("vprog: batch needs at least one program")
	}
	if n <= 0 {
		return nil, fmt.Errorf("vprog: batch node count %d must be positive", n)
	}
	b := &Batch{
		progs: progs,
		ring:  progs[0].Ring(),
		n:     n,
		offs:  make([]int, len(progs)+1),
	}
	for i, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("vprog: batch lane %d is nil", i)
		}
		w := p.Width()
		if w <= 0 {
			return nil, fmt.Errorf("vprog: batch lane %d has non-positive width %d", i, w)
		}
		if r := p.Ring(); r != b.ring {
			return nil, fmt.Errorf("vprog: batch lane %d ring %d does not match lane 0 ring %d", i, r, b.ring)
		}
		b.offs[i+1] = b.offs[i] + w
		if mi := p.MaxIter(); mi > b.maxIter {
			b.maxIter = mi
		}
	}
	b.width = b.offs[len(progs)]
	b.frozen = make([]bool, len(progs))
	b.stopIter = make([]int, len(progs))
	b.finalDelta = make([]float64, len(progs))
	b.laneDelta = make([]float64, n*len(progs))
	return b, nil
}

// Check implements Checker: the first lane whose parameters are invalid
// fails the whole batch.
func (b *Batch) Check() error {
	for i, p := range b.progs {
		if err := Check(p); err != nil {
			return fmt.Errorf("vprog: batch lane %d: %w", i, err)
		}
	}
	return nil
}

// Lanes returns the number of fused programs.
func (b *Batch) Lanes() int { return len(b.progs) }

// Width implements Program: the sum of the fused widths.
func (b *Batch) Width() int { return b.width }

// Ring implements Program.
func (b *Batch) Ring() Ring { return b.ring }

// MaxIter implements Program: the maximum over the fused programs (lanes
// with smaller caps freeze when they reach their own).
func (b *Batch) MaxIter() int { return b.maxIter }

// Init implements Program: each lane initialises its own slice of out.
func (b *Batch) Init(v uint32, out []float64) {
	for i, p := range b.progs {
		p.Init(v, out[b.offs[i]:b.offs[i+1]])
	}
}

// Scale implements Program. The engine applies ONE scale factor per source
// node across all lanes, so the fused programs must agree; a disagreement
// is recorded and reported by Split.
func (b *Batch) Scale(u uint32) float64 {
	s := b.progs[0].Scale(u)
	for _, p := range b.progs[1:] {
		if p.Scale(u) != s && !b.scaleMismatch.Swap(true) {
			b.mismatchNode.Store(u)
		}
	}
	return s
}

// Apply implements Program. Unfrozen lanes delegate to their program and
// record the per-node delta; frozen lanes copy their previous value
// through (keeping the lane bit-identical to its standalone run), except
// during an engine's deferred post-phase, where every lane applies —
// deferred nodes are evaluated exactly once, from sources the freeze kept
// at the lane's own convergence point.
//
// The fused return value is the sum of the lanes' (non-negative) deltas,
// so it satisfies the Program quiescence contract as the OR of the lane
// frontiers: zero exactly when no lane changed the node, which is what
// lets a frontier-tracking engine treat the whole width-K property as one
// activation unit.
func (b *Batch) Apply(v uint32, sum, prev, out []float64) float64 {
	var total float64
	k := len(b.progs)
	ld := b.laneDelta[int(v)*k : int(v)*k+k]
	for i, p := range b.progs {
		lo, hi := b.offs[i], b.offs[i+1]
		if b.frozen[i] && !b.post {
			copy(out[lo:hi], prev[lo:hi])
			continue
		}
		dv := p.Apply(v, sum[lo:hi], prev[lo:hi], out[lo:hi])
		if !b.post {
			ld[i] = dv
		}
		total += dv
	}
	return total
}

// Converged implements Program. Called from the engine's coordinating
// goroutine after each full iteration: it folds every unfrozen lane's
// per-node deltas in ascending node order (a fixed order, so the same
// query converges at the same iteration no matter how it is batched),
// freezes lanes whose own Converged or MaxIter says stop, and ends the
// fused run when all lanes have frozen. The engine-summed totalDelta is
// ignored — its accumulation order would depend on the engine's blocking.
func (b *Batch) Converged(totalDelta float64, iter int) bool {
	// One sequential scan folds every lane: node-major layout means the
	// scan reads (and re-zeroes) each cache line exactly once. Zeroing is
	// required so nodes the activity tracking skips next iteration read as
	// unchanged. Frozen lanes' slots are always zero (Apply skips them).
	k := len(b.progs)
	sums := b.finalDelta // reused as the fold accumulator
	for i := range sums {
		if !b.frozen[i] {
			sums[i] = 0
		}
	}
	ld := b.laneDelta
	for base := 0; base < len(ld); base += k {
		row := ld[base : base+k]
		for i, dv := range row {
			if dv != 0 {
				sums[i] += dv
				row[i] = 0
			}
		}
	}
	all := true
	for i, p := range b.progs {
		if b.frozen[i] {
			continue
		}
		b.stopIter[i] = iter
		if p.Converged(sums[i], iter) || iter >= p.MaxIter() {
			b.frozen[i] = true
		} else {
			all = false
		}
	}
	return all
}

// EnterPostPhase implements PostPhaser: from here on Apply evaluates every
// lane (the engine is computing deferred nodes once, not iterating).
func (b *Batch) EnterPostPhase() { b.post = true }

// Split demuxes the fused result into one Result per fused program, in
// submission order. Values are copied out of the fused array, so res may
// alias a reusable workspace buffer. Iterations and Delta are per-lane:
// the iteration at which the lane froze and its last delta.
func (b *Batch) Split(res *Result) ([]*Result, error) {
	if b.scaleMismatch.Load() {
		return nil, fmt.Errorf("vprog: fused programs disagree on Scale(%d); batched queries must share the propagation parameter", b.mismatchNode.Load())
	}
	if res == nil {
		return nil, fmt.Errorf("vprog: batch split of nil result")
	}
	if want := b.n * b.width; len(res.Values) != want {
		return nil, fmt.Errorf("vprog: batch split of %d values, want %d", len(res.Values), want)
	}
	out := make([]*Result, len(b.progs))
	for i := range b.progs {
		lo, hi := b.offs[i], b.offs[i+1]
		w := hi - lo
		vals := make([]float64, b.n*w)
		for v := 0; v < b.n; v++ {
			copy(vals[v*w:v*w+w], res.Values[v*b.width+lo:v*b.width+hi])
		}
		iters, delta := res.Iterations, res.Delta
		if b.frozen[i] {
			iters, delta = b.stopIter[i], b.finalDelta[i]
		}
		out[i] = &Result{Values: vals, Iterations: iters, Delta: delta}
	}
	return out, nil
}

// Reset clears all per-run state so the Batch can serve another run.
func (b *Batch) Reset() {
	for i := range b.progs {
		b.frozen[i] = false
		b.stopIter[i] = 0
		b.finalDelta[i] = 0
	}
	for v := range b.laneDelta {
		b.laneDelta[v] = 0
	}
	b.post = false
	b.scaleMismatch.Store(false)
	b.mismatchNode.Store(0)
}
