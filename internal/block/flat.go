package block

import (
	"fmt"
	"math"

	"mixen/internal/graph"
)

// Flat is the storage-ready form of a Partition: every variable-length
// per-block structure concatenated in Blocks order, so the whole partition
// is a fixed set of flat arrays that can be written to — and mmapped back
// from — a file without any per-block encoding. AssembleFlat is the
// inverse of this layout: it rebuilds the SubBlock/Rows/Cols views as
// slices INTO these arrays, so a partition loaded from a read-only mapping
// shares the mapping's pages instead of copying them (the PR2 immutability
// contract makes that safe: nothing writes partition arrays after build).
//
// Concatenation contract (all in Blocks order, i.e. block-row major,
// column-ordered within a row, split pieces adjacent):
//
//	Heads[i]                      block i's grid cell and source range
//	Srcs[SrcOff[i]:SrcOff[i+1]]   block i's Srcs
//	Dst[DstOff[i]:DstOff[i+1]]    block i's flagged destination stream
//
// SrcOff doubles as the EntryOff sequence: block i's first dynamic-bin slot
// is SrcOff[i], and SrcOff[len(Heads)] == CompressedEntries.
type Flat struct {
	R    int   // submatrix dimension
	Side int   // block side
	Nnz  int64 // total edges (== DstOff[len(Heads)])

	Heads  []FlatBlock
	SrcOff []int64 // len(Heads)+1 prefix over Srcs (and bin entries)
	DstOff []int64 // len(Heads)+1 prefix over Dst

	Srcs []graph.Node
	Dst  []uint32 // see SubBlock.Dst

	// Per-source entry index and row/column aggregates, stored verbatim
	// (see Partition field docs). SrcEntryIdx/SrcEntryCol may be nil when
	// CompressedEntries does not fit uint32.
	SrcEntryPtr []int64
	SrcEntryIdx []uint32
	SrcEntryCol []int32
	RowEntries  []int64
	RowEdges    []int64
	ColEdges    []int64
}

// FlatBlock is one block's fixed-size record in the flat form.
type FlatBlock struct {
	Row, Col     int32
	SrcLo, SrcHi int64
}

// Flatten returns the flat view of p. The Heads/SrcOff/DstOff arrays are
// freshly built (they are derived metadata); Srcs/Dst are NOT
// copied here — callers that need the concatenated arrays stream them
// block-by-block in Blocks order, which is what the partio writer does.
// (NewPartition already lays the blocks out as adjacent windows of one Srcs
// and one Dst arena, i.e. in this very layout.)
func (p *Partition) Flatten() Flat {
	nb := len(p.Blocks)
	fl := Flat{
		R:           p.R,
		Side:        p.Side,
		Nnz:         p.Nnz,
		Heads:       make([]FlatBlock, nb),
		SrcOff:      make([]int64, nb+1),
		DstOff:      make([]int64, nb+1),
		SrcEntryPtr: p.SrcEntryPtr,
		SrcEntryIdx: p.SrcEntryIdx,
		SrcEntryCol: p.SrcEntryCol,
		RowEntries:  p.RowEntries,
		RowEdges:    p.RowEdges,
		ColEdges:    p.ColEdges,
	}
	for i, sb := range p.Blocks {
		fl.Heads[i] = FlatBlock{
			Row: int32(sb.BlockRow), Col: int32(sb.BlockCol),
			SrcLo: int64(sb.SrcLo), SrcHi: int64(sb.SrcHi),
		}
		fl.SrcOff[i+1] = fl.SrcOff[i] + int64(len(sb.Srcs))
		fl.DstOff[i+1] = fl.DstOff[i] + sb.NumEdges()
	}
	return fl
}

// AssembleFlat rebuilds a Partition from its flat form. Every SubBlock's
// Srcs/Dst is a subslice of the flat arrays — zero copies — so the
// returned partition is only valid while the backing arrays are (for a
// mapping, until munmap). Validation here is structural and O(blocks +
// grid): offsets monotone and in range, cells inside the grid, aggregates
// consistent, every block non-empty with its first edge flagged as a run
// start. Per-entry invariants (one flag per source, ids inside the column)
// are covered by the file checksum upstream and by Partition.Validate in
// tests; a stream that breaks them fails a Gather bounds check, it cannot
// write outside y.
func AssembleFlat(fl Flat) (*Partition, error) {
	if fl.R < 0 || fl.R > MaxNodes || fl.Side <= 0 && fl.R > 0 {
		return nil, fmt.Errorf("block: flat: bad geometry r=%d side=%d", fl.R, fl.Side)
	}
	nb := len(fl.Heads)
	if len(fl.SrcOff) != nb+1 || len(fl.DstOff) != nb+1 {
		return nil, fmt.Errorf("block: flat: offset arrays want len %d, got %d/%d",
			nb+1, len(fl.SrcOff), len(fl.DstOff))
	}
	p := &Partition{
		R:           fl.R,
		Side:        fl.Side,
		Nnz:         fl.Nnz,
		Dst:         fl.Dst,
		SrcEntryPtr: fl.SrcEntryPtr,
		SrcEntryIdx: fl.SrcEntryIdx,
		SrcEntryCol: fl.SrcEntryCol,
		RowEntries:  fl.RowEntries,
		RowEdges:    fl.RowEdges,
		ColEdges:    fl.ColEdges,
	}
	if fl.R > 0 {
		p.B = (fl.R + fl.Side - 1) / fl.Side
	}
	if len(fl.SrcEntryPtr) != fl.R+1 {
		return nil, fmt.Errorf("block: flat: SrcEntryPtr len %d, want %d", len(fl.SrcEntryPtr), fl.R+1)
	}
	for _, agg := range [][]int64{fl.RowEntries, fl.RowEdges, fl.ColEdges} {
		if len(agg) != p.B {
			return nil, fmt.Errorf("block: flat: aggregate len %d, want %d", len(agg), p.B)
		}
	}
	if fl.SrcOff[0] != 0 || fl.DstOff[0] != 0 {
		return nil, fmt.Errorf("block: flat: offsets must start at 0")
	}
	if fl.DstOff[nb] != fl.Nnz {
		return nil, fmt.Errorf("block: flat: blocks hold %d edges, header says %d", fl.DstOff[nb], fl.Nnz)
	}
	ce := fl.SrcOff[nb]
	if int64(len(fl.Srcs)) != ce || int64(len(fl.Dst)) != fl.Nnz {
		return nil, fmt.Errorf("block: flat: array lengths inconsistent with offsets")
	}
	p.CompressedEntries = ce
	if ce > 0 && ce <= math.MaxUint32 && (fl.SrcEntryIdx == nil || fl.SrcEntryCol == nil) {
		return nil, fmt.Errorf("block: flat: source index missing despite %d entries fitting uint32", ce)
	}
	if fl.SrcEntryIdx != nil && (int64(len(fl.SrcEntryIdx)) != ce || int64(len(fl.SrcEntryCol)) != ce) {
		return nil, fmt.Errorf("block: flat: source index len %d/%d, want %d", len(fl.SrcEntryIdx), len(fl.SrcEntryCol), ce)
	}

	p.Blocks = make([]*SubBlock, nb)
	blocks := make([]SubBlock, nb) // one allocation for all block structs
	p.Rows = make([][]*SubBlock, p.B)
	p.Cols = make([][]*SubBlock, p.B)
	lastRow, lastCol := -1, -1
	for i := range fl.Heads {
		h := &fl.Heads[i]
		if h.Row < 0 || int(h.Row) >= p.B || h.Col < 0 || int(h.Col) >= p.B {
			return nil, fmt.Errorf("block: flat: block %d cell (%d,%d) outside %d×%d grid", i, h.Row, h.Col, p.B, p.B)
		}
		// Blocks order is row-major with columns ascending inside a row
		// (split pieces adjacent) — the order NewPartition emits and the
		// order Cols grouping below depends on for the fold-order contract.
		if int(h.Row) < lastRow || (int(h.Row) == lastRow && int(h.Col) < lastCol) {
			return nil, fmt.Errorf("block: flat: block %d out of row-major order", i)
		}
		if int(h.Row) != lastRow {
			lastCol = -1
		}
		sLo, sHi := fl.SrcOff[i], fl.SrcOff[i+1]
		dLo, dHi := fl.DstOff[i], fl.DstOff[i+1]
		if sHi < sLo || dHi < dLo || sHi > ce || dHi > fl.Nnz {
			return nil, fmt.Errorf("block: flat: block %d offsets decrease or overrun", i)
		}
		if sHi == sLo || dHi-dLo < sHi-sLo || fl.Dst[dLo]&RunStart == 0 {
			return nil, fmt.Errorf("block: flat: block %d (%d sources, %d edges) does not open with a run start", i, sHi-sLo, dHi-dLo)
		}
		sb := &blocks[i]
		*sb = SubBlock{
			BlockRow: int(h.Row), BlockCol: int(h.Col),
			SrcLo: int(h.SrcLo), SrcHi: int(h.SrcHi),
			Srcs:     fl.Srcs[sLo:sHi],
			Dst:      fl.Dst[dLo:dHi],
			EntryOff: sLo,
		}
		p.Blocks[i] = sb
		p.Rows[h.Row] = append(p.Rows[h.Row], sb)
		p.Cols[h.Col] = append(p.Cols[h.Col], sb)
		if int(h.Row) == lastRow && int(h.Col) == lastCol {
			p.Splits++
		}
		lastRow, lastCol = int(h.Row), int(h.Col)
	}
	return p, nil
}
