package core

import (
	"mixen/internal/block"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// Leaf kernels of the Main-Phase: every per-entry / per-edge loop of the
// dense Scatter and of Gather, as small top-level functions over plain
// slices. They are kept out of the scatterBody/gatherBody closures on
// purpose — inside those the register allocator spills loop state to the
// stack — and each is small enough that its loop state stays in registers
// (see EXPERIMENTS.md, "Branch-free Gather").
//
// Gather walks a sub-block's flagged destination stream (block.SubBlock.Dst)
// with ONE flat loop: bit 31 of an element says "next bin value", the low
// bits are the destination. Edges are visited in exactly the order the
// per-source nested loop visited them, so every y[d] folds the same values
// in the same order.

const (
	runStart = block.RunStart
	dstMask  = block.DstMask
)

// scatterBlock rewrites one sub-block's bin values from its sources:
// vals[k] = x[s] ⊗ scale[s] per lane (⊗ is × under Sum, + under Min).
func scatterBlock(ring vprog.Ring, w int, vals, x, scale []float64, srcs []graph.Node) {
	switch {
	case w == 1 && ring == vprog.Sum:
		scatterSum1(vals, x, scale, srcs)
	case w == 1:
		scatterMin1(vals, x, scale, srcs)
	case ring == vprog.Sum:
		scatterSumN(vals, x, scale, srcs, w)
	default:
		scatterMinN(vals, x, scale, srcs, w)
	}
}

// gatherBlock folds one sub-block's bin values into y along dst.
func gatherBlock(ring vprog.Ring, w int, y, vals []float64, dst []uint32) {
	if ring == vprog.Sum {
		switch w {
		case 1:
			gatherSum1(y, vals, dst)
		case 2:
			gatherSum2(y, vals, dst)
		case 4:
			gatherSum4(y, vals, dst)
		case 8:
			gatherSum8(y, vals, dst)
		default:
			gatherSumN(y, vals, dst, w)
		}
		return
	}
	switch w {
	case 1:
		gatherMin1(y, vals, dst)
	case 2:
		gatherMin2(y, vals, dst)
	case 4:
		gatherMin4(y, vals, dst)
	case 8:
		gatherMin8(y, vals, dst)
	default:
		gatherMinN(y, vals, dst, w)
	}
}

func scatterSum1(vals, x, scale []float64, srcs []graph.Node) {
	vals = vals[:len(srcs)] // drops the bounds check on vals[k]
	for k, s := range srcs {
		vals[k] = x[s] * scale[s]
	}
}

func scatterMin1(vals, x, scale []float64, srcs []graph.Node) {
	vals = vals[:len(srcs)]
	for k, s := range srcs {
		vals[k] = x[s] + scale[s]
	}
}

// The width-N scatters hoist per-source subslices: ranging over xb and
// indexing the same-length vb drops the bounds checks in the lane loop.
func scatterSumN(vals, x, scale []float64, srcs []graph.Node, w int) {
	for k, s := range srcs {
		sc := scale[s]
		xb := x[int(s)*w:][:w]
		vb := vals[k*w:][:w]
		for l, xv := range xb {
			vb[l] = xv * sc
		}
	}
}

func scatterMinN(vals, x, scale []float64, srcs []graph.Node, w int) {
	for k, s := range srcs {
		sc := scale[s]
		xb := x[int(s)*w:][:w]
		vb := vals[k*w:][:w]
		for l, xv := range xb {
			vb[l] = xv + sc
		}
	}
}

func gatherSum1(y, vals []float64, dst []uint32) {
	k := -1
	for _, d := range dst {
		k += int(d >> 31)
		y[d&dstMask] += vals[k]
	}
}

func gatherMin1(y, vals []float64, dst []uint32) {
	k := -1
	for _, d := range dst {
		k += int(d >> 31)
		if v := vals[k]; v < y[d&dstMask] {
			y[d&dstMask] = v
		}
	}
}

// Widths 2, 4 and 8 keep the current source's lanes in registers across its
// destinations and reload them at a run start — the same (mispredicting)
// branch the nested loop's exit was — with one constant-length reslice, and
// so one bounds check, per destination.

func gatherSum2(y, vals []float64, dst []uint32) {
	var v0, v1 float64
	for _, d := range dst {
		if d&runStart != 0 {
			v0, v1 = vals[0], vals[1]
			vals = vals[2:]
		}
		yb := y[int(d&dstMask)*2:][:2]
		yb[0] += v0
		yb[1] += v1
	}
}

func gatherSum4(y, vals []float64, dst []uint32) {
	var v0, v1, v2, v3 float64
	for _, d := range dst {
		if d&runStart != 0 {
			vb := vals[:4]
			v0, v1, v2, v3 = vb[0], vb[1], vb[2], vb[3]
			vals = vals[4:]
		}
		yb := y[int(d&dstMask)*4:][:4]
		yb[0] += v0
		yb[1] += v1
		yb[2] += v2
		yb[3] += v3
	}
}

func gatherSum8(y, vals []float64, dst []uint32) {
	var v0, v1, v2, v3, v4, v5, v6, v7 float64
	for _, d := range dst {
		if d&runStart != 0 {
			vb := vals[:8]
			v0, v1, v2, v3 = vb[0], vb[1], vb[2], vb[3]
			v4, v5, v6, v7 = vb[4], vb[5], vb[6], vb[7]
			vals = vals[8:]
		}
		yb := y[int(d&dstMask)*8:][:8]
		yb[0] += v0
		yb[1] += v1
		yb[2] += v2
		yb[3] += v3
		yb[4] += v4
		yb[5] += v5
		yb[6] += v6
		yb[7] += v7
	}
}

func gatherMin2(y, vals []float64, dst []uint32) {
	var v0, v1 float64
	for _, d := range dst {
		if d&runStart != 0 {
			v0, v1 = vals[0], vals[1]
			vals = vals[2:]
		}
		yb := y[int(d&dstMask)*2:][:2]
		if v0 < yb[0] {
			yb[0] = v0
		}
		if v1 < yb[1] {
			yb[1] = v1
		}
	}
}

func gatherMin4(y, vals []float64, dst []uint32) {
	var v0, v1, v2, v3 float64
	for _, d := range dst {
		if d&runStart != 0 {
			vb := vals[:4]
			v0, v1, v2, v3 = vb[0], vb[1], vb[2], vb[3]
			vals = vals[4:]
		}
		yb := y[int(d&dstMask)*4:][:4]
		if v0 < yb[0] {
			yb[0] = v0
		}
		if v1 < yb[1] {
			yb[1] = v1
		}
		if v2 < yb[2] {
			yb[2] = v2
		}
		if v3 < yb[3] {
			yb[3] = v3
		}
	}
}

func gatherMin8(y, vals []float64, dst []uint32) {
	var v0, v1, v2, v3, v4, v5, v6, v7 float64
	for _, d := range dst {
		if d&runStart != 0 {
			vb := vals[:8]
			v0, v1, v2, v3 = vb[0], vb[1], vb[2], vb[3]
			v4, v5, v6, v7 = vb[4], vb[5], vb[6], vb[7]
			vals = vals[8:]
		}
		yb := y[int(d&dstMask)*8:][:8]
		if v0 < yb[0] {
			yb[0] = v0
		}
		if v1 < yb[1] {
			yb[1] = v1
		}
		if v2 < yb[2] {
			yb[2] = v2
		}
		if v3 < yb[3] {
			yb[3] = v3
		}
		if v4 < yb[4] {
			yb[4] = v4
		}
		if v5 < yb[5] {
			yb[5] = v5
		}
		if v6 < yb[6] {
			yb[6] = v6
		}
		if v7 < yb[7] {
			yb[7] = v7
		}
	}
}

// The generic widths stage the current source's lanes in a local buffer
// when they fit: the compiler cannot prove vals and y disjoint, so reading
// vals directly would reload every lane from memory at every destination.

func gatherSumN(y, vals []float64, dst []uint32, w int) {
	var buf [16]float64
	var lanes []float64
	for _, d := range dst {
		if d&runStart != 0 {
			lanes, vals = vals[:w], vals[w:]
			if w <= len(buf) {
				lanes = buf[:copy(buf[:], lanes)]
			}
		}
		yb := y[int(d&dstMask)*w:][:len(lanes)]
		for l, vv := range lanes {
			yb[l] += vv
		}
	}
}

func gatherMinN(y, vals []float64, dst []uint32, w int) {
	var buf [16]float64
	var lanes []float64
	for _, d := range dst {
		if d&runStart != 0 {
			lanes, vals = vals[:w], vals[w:]
			if w <= len(buf) {
				lanes = buf[:copy(buf[:], lanes)]
			}
		}
		yb := y[int(d&dstMask)*w:][:len(lanes)]
		for l, vv := range lanes {
			if vv < yb[l] {
				yb[l] = vv
			}
		}
	}
}

// pushMin1 is the push Gather's leaf: it folds the runs of the given bin
// entries (entry e's destinations are dst[runOff[e]:runOff[e+1]]) into one
// block-column's values yc, whose first node is lo, sets the bit of every
// node it lowers in the column's bitmap bm, and returns the edges it
// replayed. A destination outside the column fails the bounds check on yc.
func pushMin1(yc, bins []float64, dst, runOff, ents []uint32, bm []uint64, lo uint32) int64 {
	var edges int64
	for _, e := range ents {
		v := bins[e]
		run := dst[runOff[e]:runOff[e+1]]
		edges += int64(len(run))
		for _, d := range run {
			k := d&dstMask - lo
			if v < yc[k] {
				yc[k] = v
				bm[k>>6] |= 1 << (k & 63)
			}
		}
	}
	return edges
}
