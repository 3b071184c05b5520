package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Workspace owns every piece of mutable per-run state for one engine run:
// the x/y property arrays, per-node scale factors, the static (seed) bins,
// the flat dynamic-bin array addressed through block.SubBlock.EntryOff, the
// per-block-column delta accumulators, and the frontier state (per-column
// worklists, per-row mode decisions, per-column dirty flags). The engine
// and its partition stay read-only during Run, which is what makes one
// engine safe for concurrent callers — each run works entirely inside its
// own workspace.
//
// Workspaces are width-specific (a PageRank workspace cannot serve a
// width-4 CF program). Run/RunWithStats acquire one transparently from a
// per-engine sync.Pool keyed by width; latency-sensitive callers can
// instead hold one explicitly via Engine.NewWorkspace and reuse it through
// Engine.RunInWorkspace for a zero-allocation steady state.
type Workspace struct {
	eng   *Engine
	width int

	// x, y are the canonical full property arrays in NEW id space (both
	// carry the constant seed segment so pointer swapping stays valid);
	// out is the per-workspace result buffer used by RunInWorkspace.
	x, y, out []float64

	rc runCtx
}

// Width returns the property width this workspace serves.
func (ws *Workspace) Width() int { return ws.width }

// Per-iteration execution mode of one block-row (see planIteration).
const (
	// modeDense streams every sub-block of the row, rewriting all bin
	// entries (the classic SCGA Scatter).
	modeDense uint8 = iota
	// modeSparse walks only the row's frontier worklist through the
	// partition's per-source entry index, rewriting just the changed
	// sources' bin entries.
	modeSparse
	// modeEmpty skips the row entirely: no source changed, so every bin
	// entry still holds its (valid) previous message.
	modeEmpty
)

// runCtx is the per-run execution context embedded in a Workspace. Its
// loop bodies are built ONCE at workspace construction and capture only the
// runCtx pointer, so the Main-Phase hot loop — the sched.ForRange calls
// per iteration — performs zero heap allocations when the workspace is
// reused: no closures, no goroutines, no buffers.
type runCtx struct {
	e       *Engine
	prog    vprog.Program
	ring    vprog.Ring
	w       int
	threads int
	first   bool // current iteration is the first (Apply everywhere)

	// track: per-node activity tracking is on (Config.DisableActiveTracking
	// unset). canSparse: the sparse Scatter is available for this run
	// (tracking on, sparse mode enabled, partition index built).
	track     bool
	canSparse bool
	// markDirty: the current iteration's Scatter must record per-column
	// dirty flags (track && !first; the first iteration recomputes every
	// column unconditionally).
	markDirty bool
	// sparseEnter/sparseExit are the frontier-density thresholds of the
	// dense→sparse/sparse→dense decisions (hysteresis: exit = 2×enter).
	sparseEnter, sparseExit float64

	x, y, out []float64 // x/y swap every iteration; out is the result sink
	scale     []float64 // per-node Scale factors (len n)
	sta       []float64 // static bins (len r*w)
	bins      []float64 // flat dynamic bins (len CompressedEntries*w)
	colDelta  []float64 // per-block-column convergence delta (len B)

	// seedParts holds pushSeeds' per-worker partial static bins
	// (seedWorkers() × len(sta)); allocated by the first multi-thread run.
	seedParts []float64

	// Frontier state. Gather records, per block-column j, the nodes whose
	// Apply changed their value — exactly the sources block-row j must
	// re-send next iteration (the grid is square, so column j's node range
	// IS row j's source range). work is strided: column j's worklist lives
	// at work[j*Side : j*Side+workLen[j]] (node ids, ascending). workEnt
	// accumulates those nodes' compressed-entry counts for the density
	// decision. colDirty[j] != 0 means some input source of column j
	// changed this iteration (written by Scatter with atomic stores,
	// consumed by Gather after the phase barrier).
	work     []int32
	workLen  []int32
	workEnt  []int64
	colDirty []uint32

	// Per-row mode state: rowMode is this iteration's execution mode,
	// rowSticky the dense/sparse hysteresis state that persists across
	// iterations (quiet rows keep their last preference).
	rowMode   []uint8
	rowSticky []uint8

	// Compacted sparse-scatter domain, rebuilt by planIteration each
	// iteration: the frontier nodes of all sparse-mode rows (ascending)
	// with cumulative entry counts, so the sparse Scatter parallelizes
	// over [0, sparseTotal) in ENTRY units — worklist-sized grains that
	// split hub sources across workers instead of under-parallelizing on
	// the (often tiny) node count.
	sparseNodes []int32
	sparseOff   []int64
	sparseN     int
	sparseTotal int64

	// Plan outputs for the current iteration (coordinator-owned).
	frontierNodes   int
	frontierEntries int64
	denseRows       int
	sparseRows      int
	emptyRows       int
	scatterEntries  int64

	// Push Gather state. canPush: this run's program declares
	// vprog.MinApplier and the frontier is on (set per run); pushing: the
	// current iteration gathers by push (planIteration: not the first
	// iteration, and no block-row in dense mode). pushEnt lists the
	// iteration's frontier entries grouped by block-column — column j's are
	// pushEnt[pushOff[j]:pushOff[j+1]] — and pushCur is the fill cursor.
	// pushEdges[j] counts the edges pushed into column j, and touched holds
	// one bitmap per column, pushWords words each (never sharing a word
	// across columns), of the nodes the push lowered. runOff is the
	// engine's per-entry run offsets into the partition's Dst arena. All
	// but canPush/pushing/runOff are allocated by the first push-capable
	// run (ensurePushState).
	canPush, pushing bool
	runOff           []uint32
	pushEnt          []uint32
	pushOff          []int64
	pushCur          []int64
	pushEdges        []int64
	touched          []uint64
	pushWords        int

	// timed: the run is traced, and iterateMain reads the clock at its
	// phase boundaries into marks (Scatter start, Cache start, Gather
	// start, Gather end).
	timed bool
	marks [4]time.Time

	// skipped counts sub-blocks skipped outright by the activity mask
	// (their block-row had no changed source), cumulative over the run.
	skipped atomic.Int64

	// stopPtr is the run's stop flag, armed via context.AfterFunc when the
	// run's context can be cancelled, and nil otherwise, so the ctx-less
	// hot path pays one nil check per phase loop and the coordinator one
	// atomic load per iteration.
	stopPtr *atomic.Bool

	initBody, seedPushBody, seedReduceBody, sinkBody func(lo, hi int)

	scatterBody       func(lo, hi int)
	sparseScatterBody func(lo, hi int)
	cacheBody         func(lo, hi int)
	gatherBody        func(lo, hi int)
	pushGatherBody    func(lo, hi int)
	translateBody     func(lo, hi int)
}

// NewWorkspace allocates a workspace for programs of the given property
// width, for explicit reuse across runs via RunInWorkspace. The returned
// workspace is NOT pooled: the caller owns it, and must not use it from
// two runs at once.
func (e *Engine) NewWorkspace(w int) (*Workspace, error) {
	if w <= 0 {
		return nil, fmt.Errorf("core: workspace width %d must be positive", w)
	}
	return e.newWorkspace(w), nil
}

func (e *Engine) newWorkspace(w int) *Workspace {
	n := e.F.N()
	r := e.F.NumRegular
	ws := &Workspace{
		eng:   e,
		width: w,
		x:     make([]float64, n*w),
		y:     make([]float64, n*w),
		out:   make([]float64, n*w),
	}
	rc := &ws.rc
	rc.e = e
	rc.w = w
	rc.scale = make([]float64, n)
	rc.sta = make([]float64, r*w)
	rc.bins = make([]float64, e.P.CompressedEntries*int64(w))
	rc.colDelta = make([]float64, e.P.B)
	// Worklist writes for column j land in [j*Side, j*Side+count) which is
	// always within [0, r), so one r-sized array serves every column.
	rc.work = make([]int32, r)
	rc.workLen = make([]int32, e.P.B)
	rc.workEnt = make([]int64, e.P.B)
	rc.colDirty = make([]uint32, e.P.B)
	rc.rowMode = make([]uint8, e.P.B)
	rc.rowSticky = make([]uint8, e.P.B)
	rc.sparseNodes = make([]int32, r)
	rc.sparseOff = make([]int64, r+1)
	rc.buildBodies()
	rc.buildEdgePhaseBodies()
	return ws
}

// ensurePushState allocates the push Gather's per-column state on the
// workspace's first push-capable run. pushEnt grows on demand in planPush.
func (rc *runCtx) ensurePushState() {
	if rc.pushOff != nil {
		return
	}
	b := rc.e.P.B
	rc.pushOff = make([]int64, b+1)
	rc.pushCur = make([]int64, b)
	rc.pushEdges = make([]int64, b)
	rc.pushWords = (rc.e.P.Side + 63) / 64
	rc.touched = make([]uint64, b*rc.pushWords)
}

// workspacePool returns the engine's sync.Pool for width-w workspaces.
func (e *Engine) workspacePool(w int) *sync.Pool {
	if p, ok := e.wsPools.Load(w); ok {
		return p.(*sync.Pool)
	}
	p, _ := e.wsPools.LoadOrStore(w, &sync.Pool{New: func() any { return e.newWorkspace(w) }})
	return p.(*sync.Pool)
}

// planIteration is the per-iteration coordinator step that turns last
// iteration's per-column worklists into this iteration's scatter plan:
// each block-row is classified empty (skip — bins still valid), sparse
// (walk the frontier through the source index) or dense (stream the row),
// with a Ligra-style density threshold plus hysteresis deciding between
// the two scatter bodies. Sparse rows' worklists are compacted into the
// flat entry-weighted domain the sparse body parallelizes over. O(B +
// frontier) on the coordinating goroutine, allocation-free.
func (rc *runCtx) planIteration() {
	p := rc.e.P
	b := p.B
	for j := range rc.colDirty {
		rc.colDirty[j] = 0
	}
	rc.sparseN, rc.sparseTotal = 0, 0
	rc.frontierNodes, rc.frontierEntries = 0, 0
	rc.denseRows, rc.sparseRows, rc.emptyRows = 0, 0, 0
	rc.scatterEntries = 0
	rc.pushing = false
	rc.markDirty = rc.track && !rc.first
	if rc.first || !rc.track {
		// Everything is (potentially) changed: stream every row densely.
		for i := range rc.rowMode {
			rc.rowMode[i] = modeDense
		}
		rc.denseRows = b
		rc.frontierNodes = p.R
		rc.frontierEntries = p.CompressedEntries
		rc.scatterEntries = p.CompressedEntries
		return
	}
	sep := p.SrcEntryPtr
	side := p.Side
	var skipped int64
	for i := 0; i < b; i++ {
		cnt := int(rc.workLen[i])
		rc.frontierNodes += cnt
		if cnt == 0 || p.RowEntries[i] == 0 {
			// No changed source (or the row feeds no blocks at all): the
			// bins keep their previous, still-valid messages.
			rc.rowMode[i] = modeEmpty
			rc.emptyRows++
			skipped += int64(len(p.Rows[i]))
			continue
		}
		fe := rc.workEnt[i]
		rc.frontierEntries += fe
		sticky := rc.rowSticky[i]
		if rc.canSparse {
			d := float64(fe) / float64(p.RowEntries[i])
			if sticky == modeSparse {
				if d >= rc.sparseExit {
					sticky = modeDense
				}
			} else if d < rc.sparseEnter {
				sticky = modeSparse
			}
			rc.rowSticky[i] = sticky
		} else {
			sticky = modeDense
		}
		if sticky == modeSparse {
			rc.rowMode[i] = modeSparse
			rc.sparseRows++
			rc.scatterEntries += fe
			base := rc.sparseN
			copy(rc.sparseNodes[base:base+cnt], rc.work[i*side:i*side+cnt])
			cum := rc.sparseOff[base]
			for k := 0; k < cnt; k++ {
				u := int(rc.sparseNodes[base+k])
				cum += sep[u+1] - sep[u]
				rc.sparseOff[base+k+1] = cum
			}
			rc.sparseN = base + cnt
		} else {
			rc.rowMode[i] = modeDense
			rc.denseRows++
			rc.scatterEntries += p.RowEntries[i]
		}
	}
	rc.sparseTotal = rc.sparseOff[rc.sparseN]
	if skipped != 0 {
		rc.skipped.Add(skipped)
	}
	// Push when no row is dense: every changed entry is then on the
	// sparse worklist, the only entries whose bins this Scatter rewrites.
	if rc.canPush && rc.denseRows == 0 {
		rc.pushing = true
		rc.planPush()
	}
}

// planPush groups the sparse worklist's entries by destination
// block-column (count, prefix, fill), so that the push Gather of column j
// walks exactly the entries that feed it. O(B + frontier entries) on the
// coordinating goroutine; allocates only when the frontier outgrows every
// earlier one of the workspace.
func (rc *runCtx) planPush() {
	p := rc.e.P
	sep, idx, cols := p.SrcEntryPtr, p.SrcEntryIdx, p.SrcEntryCol
	off := rc.pushOff
	clear(off)
	nodes := rc.sparseNodes[:rc.sparseN]
	for _, u := range nodes {
		for _, j := range cols[sep[u]:sep[u+1]] {
			off[j+1]++
		}
	}
	for j := 0; j < p.B; j++ {
		rc.pushCur[j] = off[j]
		off[j+1] += off[j]
	}
	if need := off[p.B]; int64(len(rc.pushEnt)) < need {
		rc.pushEnt = make([]uint32, need+need/4)
	}
	ents, cur := rc.pushEnt, rc.pushCur
	for _, u := range nodes {
		s, t := sep[u], sep[u+1]
		for k, j := range cols[s:t] {
			ents[cur[j]] = idx[s+int64(k)]
			cur[j]++
		}
	}
}

// drainedEdges returns the edges Gather replayed this iteration: the edge
// total of every recomputed block-column, or the edges pushed on a push
// iteration. O(B), coordinator-only.
func (rc *runCtx) drainedEdges() int64 {
	p := rc.e.P
	if rc.first || !rc.track {
		return p.Nnz
	}
	var ge int64
	if rc.pushing {
		for _, pe := range rc.pushEdges {
			ge += pe
		}
		return ge
	}
	for j := 0; j < p.B; j++ {
		if atomic.LoadUint32(&rc.colDirty[j]) != 0 {
			ge += p.ColEdges[j]
		}
	}
	return ge
}

// buildBodies constructs the prebuilt loop bodies. Each closure captures
// only rc; everything else — the program, the swapped x/y, the masks — is
// read through rc fields at call time, so the same closures serve every
// run and every iteration without reallocation.
func (rc *runCtx) buildBodies() {
	// Init: per-node program initialisation + scale factors, in NEW order.
	rc.initBody = func(lo, hi int) {
		f := rc.e.F
		w := rc.w
		for v := lo; v < hi; v++ {
			old := uint32(f.OldID[v])
			rc.prog.Init(old, rc.x[v*w:v*w+w])
			rc.scale[v] = rc.prog.Scale(old)
		}
	}

	// Scatter, dense body (SCGA): stream each dense-mode sub-block,
	// rewriting its full dynamic bin with the compressed source values.
	// Bins are disjoint per sub-block, so no synchronisation is needed;
	// empty rows keep their previous (still valid) bin contents and
	// sparse rows are handled by sparseScatterBody.
	rc.scatterBody = func(lo, hi int) {
		blocks := rc.e.P.Blocks
		x, scale, w, ring := rc.x, rc.scale, rc.w, rc.ring
		mark := rc.markDirty
		for bi := lo; bi < hi; bi++ {
			sb := blocks[bi]
			if rc.rowMode[sb.BlockRow] != modeDense {
				continue
			}
			if mark {
				atomic.StoreUint32(&rc.colDirty[sb.BlockCol], 1)
			}
			off := int(sb.EntryOff) * w
			scatterBlock(ring, w, rc.bins[off:off+len(sb.Srcs)*w], x, scale, sb.Srcs)
		}
	}

	// Scatter, sparse body: walk the compacted frontier through the
	// partition's per-source entry index, rewriting only the changed
	// sources' bin entries and marking their destination columns dirty.
	// The iteration domain is [0, sparseTotal) in ENTRY units; a chunk
	// [lo, hi) maps back to worklist items via the cumulative sparseOff,
	// so a hub source's entries split cleanly across workers (bin slots
	// are per-source disjoint, and two workers never share a slot).
	rc.sparseScatterBody = func(lo, hi int) {
		p := rc.e.P
		x, scale, w, ring, bins := rc.x, rc.scale, rc.w, rc.ring, rc.bins
		nodes := rc.sparseNodes[:rc.sparseN]
		off := rc.sparseOff[: rc.sparseN+1 : rc.sparseN+1]
		sep := p.SrcEntryPtr
		lo64, hi64 := int64(lo), int64(hi)
		it := sort.Search(len(nodes), func(i int) bool { return off[i+1] > lo64 })
		for ; it < len(nodes) && off[it] < hi64; it++ {
			u := int(nodes[it])
			s, t := sep[u], sep[u+1]
			if d := lo64 - off[it]; d > 0 {
				s += d
			}
			if over := off[it] + (sep[u+1] - sep[u]) - hi64; over > 0 {
				t -= over
			}
			ents := p.SrcEntryIdx[s:t]
			cols := p.SrcEntryCol[s:t]
			cols = cols[:len(ents)]
			if w == 1 {
				var v float64
				if ring == vprog.Sum {
					v = x[u] * scale[u]
				} else {
					v = x[u] + scale[u]
				}
				for k, ei := range ents {
					bins[ei] = v
					atomic.StoreUint32(&rc.colDirty[cols[k]], 1)
				}
				continue
			}
			sc := scale[u]
			base := u * w
			xb := x[base : base+w]
			if ring == vprog.Sum {
				for k, ei := range ents {
					eb := int(ei) * w
					vb := bins[eb : eb+w]
					vb = vb[:len(xb)]
					for l, xv := range xb {
						vb[l] = xv * sc
					}
					atomic.StoreUint32(&rc.colDirty[cols[k]], 1)
				}
				continue
			}
			for k, ei := range ents {
				eb := int(ei) * w
				vb := bins[eb : eb+w]
				vb = vb[:len(xb)]
				for l, xv := range xb {
					vb[l] = xv + sc
				}
				atomic.StoreUint32(&rc.colDirty[cols[k]], 1)
			}
		}
	}

	// Cache (SCGA): seed the output segment with the static-bin
	// contributions — a streaming copy that doubles as zero-initialisation.
	rc.cacheBody = func(lo, hi int) {
		copy(rc.y[lo:hi], rc.sta[lo:hi])
	}

	// Gather+Apply (SCGA): drain the dynamic bins column-by-column, then
	// apply the user function over the column's node range, recording the
	// changed nodes as next iteration's frontier. When no input source of
	// a column changed this iteration, its inputs are unchanged — copy the
	// previous values forward and skip the gather (valid because Apply is
	// a pure function of the gathered sum, the same contract the deferred
	// sink Post-Phase requires).
	rc.gatherBody = func(lo, hi int) {
		p := rc.e.P
		f := rc.e.F
		r := f.NumRegular
		x, y, w, ring := rc.x, rc.y, rc.w, rc.ring
		prog := rc.prog
		track := rc.track
		sep := p.SrcEntryPtr
		side := p.Side
		for j := lo; j < hi; j++ {
			// The first iteration must Apply everywhere (seed-only columns
			// have no sub-blocks yet carry static contributions); with
			// tracking off every column recomputes every iteration.
			dirty := rc.first || !track || atomic.LoadUint32(&rc.colDirty[j]) != 0
			if !dirty {
				clo := j * side * w
				chi := clo + side*w
				if chi > r*w {
					chi = r * w
				}
				copy(y[clo:chi], x[clo:chi])
				rc.colDelta[j] = 0
				rc.workLen[j] = 0
				rc.workEnt[j] = 0
				continue
			}
			for _, sb := range p.Cols[j] {
				off := int(sb.EntryOff) * w
				gatherBlock(ring, w, y, rc.bins[off:off+len(sb.Srcs)*w], sb.Dst)
			}
			// Apply over this block-column's node range. With tracking on,
			// changed nodes become block-row j's frontier worklist for the
			// next iteration (per-node quiescence: a zero Apply delta means
			// out == prev, the vprog.Program contract).
			clo := j * side
			chi := clo + side
			if chi > r {
				chi = r
			}
			var d float64
			for v := clo; v < chi; v++ {
				old := uint32(f.OldID[v])
				d += prog.Apply(old, y[v*w:v*w+w], x[v*w:v*w+w], y[v*w:v*w+w])
			}
			rc.colDelta[j] = d
			if track {
				// Frontier recording is a separate bitwise x-vs-y compare
				// pass, NOT folded into the Apply loop: keeping the worklist
				// counters live across the opaque Apply call costs far more
				// in spilled registers than this second (branch-light,
				// cache-hot) sweep. Bit-equality is also the exact criterion
				// the skip machinery needs — a source must re-send iff its
				// output bits changed — independent of the delta the program
				// reports.
				wl := rc.work[clo:chi]
				sl := sep[clo : chi+1 : chi+1]
				cnt := 0
				var fe int64
				if w == 1 {
					xb := x[clo:chi]
					yb := y[clo:chi]
					yb = yb[:len(xb)]
					for k, xv := range xb {
						// Branchless: the worklist slot is written
						// unconditionally (cnt only advances on a change, so
						// a non-change's write lands on a slot the next
						// change overwrites) and the counters advance by
						// conditional moves, so a mixed changed/quiet column
						// costs no mispredictions.
						wl[cnt] = int32(clo + k)
						e := sl[k+1] - sl[k]
						if math.Float64bits(yb[k]) != math.Float64bits(xv) {
							cnt++
							fe += e
						}
					}
				} else {
					for v := clo; v < chi; v++ {
						xb := x[v*w : v*w+w]
						yb := y[v*w : v*w+w]
						yb = yb[:len(xb)]
						for l, xv := range xb {
							if math.Float64bits(yb[l]) != math.Float64bits(xv) {
								k := v - clo
								wl[cnt] = int32(v)
								cnt++
								fe += sl[k+1] - sl[k]
								break
							}
						}
					}
				}
				rc.workLen[j] = int32(cnt)
				rc.workEnt[j] = fe
			}
		}
	}

	// Gather+Apply by push (programs declaring vprog.MinApplier, on an
	// iteration with no dense row): each block-column starts from its
	// previous values, folds in only the runs of the entries this Scatter
	// rewrote, and Applies only the nodes that fold lowered, in ascending
	// order, recording the changed ones as next iteration's worklist. The
	// Cache step is skipped: the seed contributions were folded in the
	// first iteration and cannot lower a value again. Every value, delta
	// and worklist equals the dense Gather's: a value only ever falls, so
	// an unchanged entry was already folded into it, and Apply of an
	// unlowered node returns its previous value with a zero delta.
	rc.pushGatherBody = func(lo, hi int) {
		p := rc.e.P
		f := rc.e.F
		r := f.NumRegular
		x, y, prog := rc.x, rc.y, rc.prog
		sep := p.SrcEntryPtr
		side, words := p.Side, rc.pushWords
		for j := lo; j < hi; j++ {
			clo := j * side
			chi := min(clo+side, r)
			xc, yc := x[clo:chi], y[clo:chi]
			copy(yc, xc)
			rc.colDelta[j], rc.workLen[j], rc.workEnt[j], rc.pushEdges[j] = 0, 0, 0, 0
			ents := rc.pushEnt[rc.pushOff[j]:rc.pushOff[j+1]]
			if len(ents) == 0 {
				continue
			}
			bm := rc.touched[j*words : j*words+words]
			rc.pushEdges[j] = pushMin1(yc, rc.bins, p.Dst, rc.runOff, ents, bm, uint32(clo))
			wl := rc.work[clo:chi]
			cnt := 0
			var fe int64
			var d float64
			for wi, word := range bm {
				if word == 0 {
					continue
				}
				bm[wi] = 0
				for ; word != 0; word &= word - 1 {
					k := wi*64 + bits.TrailingZeros64(word)
					v := clo + k
					d += prog.Apply(uint32(f.OldID[v]), yc[k:k+1], xc[k:k+1], yc[k:k+1])
					if math.Float64bits(yc[k]) != math.Float64bits(xc[k]) {
						wl[cnt] = int32(v)
						cnt++
						fe += sep[v+1] - sep[v]
					}
				}
			}
			rc.colDelta[j] = d
			rc.workLen[j] = int32(cnt)
			rc.workEnt[j] = fe
		}
	}

	// Translate: final values from NEW id order back to original ids.
	rc.translateBody = func(lo, hi int) {
		f := rc.e.F
		w := rc.w
		for old := lo; old < hi; old++ {
			newV := int(f.NewID[old])
			copy(rc.out[old*w:old*w+w], rc.x[newV*w:newV*w+w])
		}
	}
}

// iterateMain executes one full Main-Phase iteration — the coordinator
// plan step, Scatter (dense rows + sparse worklists), Cache, Gather+Apply
// (dense, or by push) — and returns the summed convergence delta. It is
// the one iteration path of traced and untraced runs alike: a traced run
// (rc.timed) reads the clock at the phase boundaries into rc.marks. This
// is the zero-allocation hot path: prebuilt bodies, pooled scheduler jobs,
// no buffers (asserted by TestMainPhaseIterationAllocatesNothing).
func (rc *runCtx) iterateMain() float64 {
	e := rc.e
	rc.planIteration()
	rc.mark(0)
	sched.ForRangeStop(len(e.P.Blocks), rc.threads, 1, rc.stopPtr, rc.scatterBody)
	if rc.sparseTotal > 0 {
		sched.ForRangeStop(int(rc.sparseTotal), rc.threads, 0, rc.stopPtr, rc.sparseScatterBody)
	}
	rc.mark(1)
	gather := rc.pushGatherBody
	if !rc.pushing {
		sched.ForRangeStop(e.F.NumRegular*rc.w, rc.threads, 8192, rc.stopPtr, rc.cacheBody)
		gather = rc.gatherBody
	}
	rc.mark(2)
	sched.ForRangeStop(e.P.B, rc.threads, 1, rc.stopPtr, gather)
	rc.mark(3)
	var total float64
	for _, d := range rc.colDelta {
		total += d
	}
	return total
}

// mark records phase boundary i of a timed (traced) iteration.
func (rc *runCtx) mark(i int) {
	if rc.timed {
		rc.marks[i] = time.Now()
	}
}
