package block

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"mixen/internal/graph"
)

// refRow is the build this package used before the count/fill passes, kept
// as the yardstick: one growing cell per block-column, appended to edge by
// edge, then cut into pieces by a second scan over the cell's stream.
func refRow(ptr []int64, idx []graph.Node, r, i int, cfg Config, maxEdges int64) []*SubBlock {
	side := cfg.Side
	lo, hi := i*side, min((i+1)*side, r)
	type cell struct {
		srcs []graph.Node
		dst  []uint32
	}
	cells := make([]cell, (r+side-1)/side)
	for u := lo; u < hi; u++ {
		for _, d := range idx[ptr[u]:ptr[u+1]] {
			c := &cells[int(d)/side]
			flag := uint32(0)
			if cfg.DisableCompression || len(c.srcs) == 0 || c.srcs[len(c.srcs)-1] != graph.Node(u) {
				c.srcs = append(c.srcs, graph.Node(u))
				flag = RunStart
			}
			c.dst = append(c.dst, d|flag)
		}
	}
	var out []*SubBlock
	for j, c := range cells {
		total := len(c.dst)
		switch {
		case total == 0:
			continue
		case maxEdges == 0 || int64(total) <= maxEdges:
			out = append(out, &SubBlock{BlockRow: i, BlockCol: j, SrcLo: lo, SrcHi: hi, Srcs: c.srcs, Dst: c.dst})
			continue
		}
		emit := func(sLo, sHi, dLo, dHi int) {
			srcs := c.srcs[sLo:sHi]
			out = append(out, &SubBlock{
				BlockRow: i, BlockCol: j,
				SrcLo: int(srcs[0]), SrcHi: int(srcs[len(srcs)-1]) + 1,
				Srcs: srcs, Dst: c.dst[dLo:dHi],
			})
		}
		start, dLo, k, runLo := 0, 0, 0, 0
		for pos := 1; pos <= total; pos++ {
			if pos < total && c.dst[pos]&RunStart == 0 {
				continue
			}
			if k > start && int64(pos-dLo) > maxEdges {
				emit(start, k, dLo, runLo)
				start, dLo = k, runLo
			}
			k, runLo = k+1, pos
		}
		emit(start, len(c.srcs), dLo, total)
	}
	return out
}

// refMaxEdges is the cap both builds derive from the load factor.
func refMaxEdges(nnz int64, b int, cfg Config) int64 {
	if cfg.MaxLoadFactor <= 0 || b == 0 {
		return 0
	}
	mean := float64(nnz) / float64(b*b)
	return max(1, int64(cfg.MaxLoadFactor*mean))
}

// sameBlocks compares built blocks with reference blocks field by field;
// EntryOff must be the running source count in the given order.
func sameBlocks(got, want []*SubBlock) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d blocks, reference has %d", len(got), len(want))
	}
	var entries int64
	for k, w := range want {
		g := got[k]
		if g.BlockRow != w.BlockRow || g.BlockCol != w.BlockCol || g.SrcLo != w.SrcLo || g.SrcHi != w.SrcHi {
			return fmt.Errorf("block %d head (%d,%d)[%d,%d), reference (%d,%d)[%d,%d)",
				k, g.BlockRow, g.BlockCol, g.SrcLo, g.SrcHi, w.BlockRow, w.BlockCol, w.SrcLo, w.SrcHi)
		}
		if !slices.Equal(g.Srcs, w.Srcs) || !slices.Equal(g.Dst, w.Dst) {
			return fmt.Errorf("block %d (%d,%d): Srcs/Dst differ from the reference", k, g.BlockRow, g.BlockCol)
		}
		if g.EntryOff != entries {
			return fmt.Errorf("block %d EntryOff %d, want %d", k, g.EntryOff, entries)
		}
		entries += int64(len(w.Srcs))
	}
	return nil
}

// arenaProperty checks that consecutive blocks are adjacent windows of one
// Srcs and one Dst allocation with no spare capacity.
func arenaProperty(blocks []*SubBlock) error {
	for k, sb := range blocks {
		if cap(sb.Srcs) != len(sb.Srcs) || cap(sb.Dst) != len(sb.Dst) {
			return fmt.Errorf("block %d has spare capacity (srcs %d/%d, dst %d/%d): an append would reach its neighbour",
				k, len(sb.Srcs), cap(sb.Srcs), len(sb.Dst), cap(sb.Dst))
		}
		if k == 0 {
			continue
		}
		prev := blocks[k-1]
		if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev.Srcs)), 4*len(prev.Srcs)) != unsafe.Pointer(unsafe.SliceData(sb.Srcs)) ||
			unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev.Dst)), 4*len(prev.Dst)) != unsafe.Pointer(unsafe.SliceData(sb.Dst)) {
			return fmt.Errorf("block %d does not start where block %d ends", k, k-1)
		}
	}
	return nil
}

// checkAgainstReference builds (ptr, idx) both ways and compares everything
// the build owns.
func checkAgainstReference(ptr []int64, idx []graph.Node, r int, cfg Config) error {
	p, err := NewPartition(ptr, idx, r, cfg)
	if err != nil {
		return err
	}
	maxEdges := refMaxEdges(ptr[r], p.B, cfg)
	var want []*SubBlock
	var splits int64
	for i := 0; i < p.B; i++ {
		row := refRow(ptr, idx, r, i, cfg, maxEdges)
		for k, sb := range row {
			if k > 0 && row[k-1].BlockCol == sb.BlockCol {
				splits++
			}
		}
		want = append(want, row...)
	}
	if err := sameBlocks(p.Blocks, want); err != nil {
		return err
	}
	if p.Splits != splits {
		return fmt.Errorf("Splits %d, reference %d", p.Splits, splits)
	}
	if err := arenaProperty(p.Blocks); err != nil {
		return err
	}
	return p.Validate()
}

// skewedMultigraph draws m edges over r nodes with both endpoints cubed
// towards low ids, so a few hub rows and columns collect most edges and
// duplicates are common.
func skewedMultigraph(rng *rand.Rand, r, m int) ([]int64, []graph.Node) {
	draw := func() graph.Node {
		x := rng.Float64()
		return graph.Node(x * x * x * float64(r))
	}
	edges := make([]graph.Edge, m)
	for e := range edges {
		edges[e] = graph.Edge{Src: draw(), Dst: draw()}
	}
	g, err := graph.FromEdges(r, edges)
	if err != nil {
		panic(err)
	}
	return g.OutPtr, g.OutIdx
}

func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 12; trial++ {
		r := 1 + rng.Intn(400)
		ptr, idx := skewedMultigraph(rng, r, rng.Intn(12*r))
		for _, side := range []int{1, 3, 8, 50, 64, r, r + 7} {
			for _, lf := range []float64{0, 2, 0.02} {
				for _, noComp := range []bool{false, true} {
					for _, threads := range []int{1, 2, 4} {
						cfg := Config{Side: side, MaxLoadFactor: lf, DisableCompression: noComp, Threads: threads}
						if err := checkAgainstReference(ptr, idx, r, cfg); err != nil {
							t.Fatalf("r=%d m=%d side=%d lf=%v noComp=%v threads=%d: %v",
								r, len(idx), side, lf, noComp, threads, err)
						}
					}
				}
			}
		}
	}
}

// An append to a block's slice must reallocate, never write the next block.
func TestAppendCannotReachNeighbour(t *testing.T) {
	ptr, idx := skewedMultigraph(rand.New(rand.NewSource(3)), 64, 600)
	p, err := NewPartition(ptr, idx, 64, Config{Side: 16, MaxLoadFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) < 2 {
		t.Fatal("fixture must have several blocks")
	}
	next := p.Blocks[1]
	srcs, dst := slices.Clone(next.Srcs), slices.Clone(next.Dst)
	_ = append(p.Blocks[0].Srcs, 999)
	_ = append(p.Blocks[0].Dst, 999)
	if !slices.Equal(next.Srcs, srcs) || !slices.Equal(next.Dst, dst) {
		t.Fatal("append to block 0 overwrote block 1")
	}
}

// FuzzBuildMatchesReference: random edge list × side × load factor ×
// compression → reference-equal partition.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 0, 3, 0, 7, 7}, uint8(2), uint8(0), false)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 1, 9, 9, 1, 2, 2}, uint8(3), uint8(1), true)
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}, uint8(1), uint8(40), false)
	f.Fuzz(func(t *testing.T, raw []byte, side, lf uint8, noComp bool) {
		const r = 24
		edges := make([]graph.Edge, len(raw)/2)
		for e := range edges {
			edges[e] = graph.Edge{Src: graph.Node(raw[2*e]) % r, Dst: graph.Node(raw[2*e+1]) % r}
		}
		g, err := graph.FromEdges(r, edges)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Side: 1 + int(side)%(r+3), MaxLoadFactor: float64(lf) / 16, DisableCompression: noComp, Threads: 2}
		if err := checkAgainstReference(g.OutPtr, g.OutIdx, r, cfg); err != nil {
			t.Fatalf("side=%d lf=%v noComp=%v: %v", cfg.Side, cfg.MaxLoadFactor, noComp, err)
		}
	})
}
