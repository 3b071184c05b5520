// Package block implements Mixen's graph partitioning and binning stage
// (Section 4.2): 2-D cache-sized blocking of a square CSR submatrix,
// per-block local CSRs with edge compression, load-balanced splitting of
// overloaded blocks, and the dynamic/static bins consumed by the SCGA
// scheduler.
//
// The same partitioner serves both Mixen (blocking the filtered
// regular×regular submatrix) and the GPOP-like baseline (blocking the whole
// graph), so it takes raw CSR arrays rather than a filtered graph.
package block

import (
	"fmt"
	"math"

	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
)

// SubBlock is one work unit of the 2-D partition: the intersection of a
// source range and a destination block, stored as a compressed local CSR.
//
// Edge compression (the paper's "messages from a single source node to
// multiple destination nodes ... compressed into a single transmission"):
// the dynamic bin holds one buffered value per contributing source, not one
// per edge; destinations are replayed from Dst during Gather.
//
// A SubBlock is immutable once NewPartition returns: it carries topology
// only. The dynamic-bin VALUES (one Width-lane slot per entry, rewritten by
// every Scatter and drained by every Gather) live in the caller's per-run
// workspace, addressed through EntryOff, so one partition can serve many
// concurrent runs.
type SubBlock struct {
	BlockRow int // block-row index i
	BlockCol int // block-column index j

	SrcLo, SrcHi int // source id range covered (after splitting)

	Srcs []graph.Node // sources with >=1 edge into this block, ascending

	// Dst is the block's destination stream, one element per edge, grouped
	// by source in Srcs order: the low 31 bits (DstMask) are the global
	// destination id and bit 31 (RunStart) is set on the first destination
	// of each source's run. Every entry has at least one edge, so the flags
	// delimit exactly len(Srcs) runs and Gather replays the block with one
	// flat loop — `k += int(d >> 31)` steps to the next bin value — instead
	// of a per-source inner loop.
	Dst []uint32

	// EntryOff is this block's first slot in a flat per-run bin array of
	// Partition.CompressedEntries entries: a workspace with w lanes keeps
	// this block's bin values at [EntryOff*w, (EntryOff+len(Srcs))*w).
	EntryOff int64
}

// Flag and mask of a SubBlock.Dst element. Ids must fit the mask, which
// caps a partitioned submatrix at MaxNodes nodes.
const (
	RunStart uint32 = 1 << 31
	DstMask  uint32 = RunStart - 1
	MaxNodes        = 1 << 31
)

// NumEdges returns the edge count in this sub-block.
func (sb *SubBlock) NumEdges() int64 { return int64(len(sb.Dst)) }

// NumEntries returns the compressed message count (one per source).
func (sb *SubBlock) NumEntries() int { return len(sb.Srcs) }

// Config controls partitioning.
type Config struct {
	// Side is the number of nodes per block side (the paper's cache
	// indicator c; 256 KB blocks over 32-bit properties hold 64K nodes).
	Side int
	// MaxLoadFactor caps a sub-block's edges at MaxLoadFactor × the mean
	// edges per block; heavier blocks are split by source range. The paper
	// uses 2. Zero disables splitting.
	MaxLoadFactor float64
	// DisableCompression stores one bin entry per edge instead of one per
	// (source, block) pair. Only used by the ablation study.
	DisableCompression bool
	Threads            int
	// Collector receives partitioning telemetry: blocks built, splits
	// performed, compression ratio. Nil means the no-op collector.
	Collector obs.Collector
}

// DefaultSide picks a block side for an r-node submatrix: cache-sized
// (32K nodes ≈ 256KB of float64) but small enough to give every thread at
// least four block-rows, per the paper's parallelization guidance (§6.4).
func DefaultSide(r, threads int) int {
	if threads <= 0 {
		threads = sched.DefaultThreads()
	}
	side := 32 * 1024
	for side > 256 && (r+side-1)/side < 4*threads {
		side /= 2
	}
	return side
}

// Partition is the 2-D blocked form of an r×r CSR submatrix.
//
// A Partition is READ-ONLY after NewPartition returns: it holds topology
// and metadata only, never run state. All per-run values — property
// arrays, static (seed) bins, dynamic bin values — live in the engine's
// per-run workspace, which is what lets a single partition be shared by
// any number of concurrent runs of any property width.
type Partition struct {
	R    int   // submatrix dimension
	Side int   // block side actually used
	B    int   // number of block rows/columns = ceil(R/Side)
	Nnz  int64 // total edges in the submatrix

	Blocks []*SubBlock   // all sub-blocks
	Rows   [][]*SubBlock // grouped by block-row, ordered by column
	Cols   [][]*SubBlock // grouped by block-column, ordered by row

	// CompressedEntries counts bin slots (Σ per-block sources), the
	// quantity edge compression optimizes. It is also the entry dimension
	// of a per-run dynamic-bin array (see SubBlock.EntryOff).
	CompressedEntries int64

	// Splits counts sub-blocks created beyond one per non-empty grid cell
	// by the load-balance splitting of overloaded cells.
	Splits int64

	// SrcEntryPtr/SrcEntryIdx/SrcEntryCol form the per-source compressed-
	// entry index that sparse (frontier-driven) Scatter walks: for a source
	// u, the half-open range SrcEntryPtr[u]..SrcEntryPtr[u+1] of
	// SrcEntryIdx lists — ascending — the global bin-entry slots u feeds
	// (a workspace with w lanes keeps slot e's values at [e*w, e*w+w)),
	// and SrcEntryCol gives each slot's destination block-column, so a
	// sparse Scatter can mark exactly the columns a changed source dirties.
	//
	// SrcEntryPtr is always built (it also serves as the per-source entry
	// count used by frontier density accounting). SrcEntryIdx/SrcEntryCol
	// are nil when CompressedEntries does not fit in uint32 — engines must
	// then fall back to dense row streaming.
	SrcEntryPtr []int64
	SrcEntryIdx []uint32
	SrcEntryCol []int32

	// RowEntries/RowEdges aggregate each block-row's compressed entries and
	// edges; ColEdges aggregates each block-column's edges. They price the
	// dense alternatives the sparse mode decision and the skipped-work
	// telemetry compare against.
	RowEntries []int64
	RowEdges   []int64
	ColEdges   []int64
}

// CompressionRatio returns edges per bin entry (≥ 1; 1 with compression
// disabled, 0 for an empty partition).
func (p *Partition) CompressionRatio() float64 {
	if p.CompressedEntries == 0 {
		return 0
	}
	return float64(p.Nnz) / float64(p.CompressedEntries)
}

// NewPartition blocks the square submatrix given by ptr/idx (r+1 pointers,
// ptr[r] edges; every index must be < r).
func NewPartition(ptr []int64, idx []graph.Node, r int, cfg Config) (*Partition, error) {
	if r > MaxNodes {
		return nil, fmt.Errorf("block: %d nodes exceed the %d the flagged destination stream can address", r, MaxNodes)
	}
	if r < 0 || len(ptr) != r+1 {
		return nil, fmt.Errorf("block: bad csr, r=%d len(ptr)=%d", r, len(ptr))
	}
	if cfg.Side <= 0 {
		cfg.Side = DefaultSide(r, cfg.Threads)
	}
	if cfg.MaxLoadFactor < 0 {
		return nil, fmt.Errorf("block: negative load factor %v", cfg.MaxLoadFactor)
	}
	p := &Partition{
		R:    r,
		Side: cfg.Side,
		Nnz:  ptr[r],
	}
	if r == 0 {
		p.B = 0
		p.Rows = nil
		p.Cols = nil
		p.buildSourceIndex(cfg.Threads)
		return p, nil
	}
	p.B = (r + cfg.Side - 1) / cfg.Side
	p.Rows = make([][]*SubBlock, p.B)
	p.Cols = make([][]*SubBlock, p.B)

	meanPerBlock := float64(p.Nnz) / float64(p.B*p.B)
	maxEdges := int64(0)
	if cfg.MaxLoadFactor > 0 {
		maxEdges = int64(cfg.MaxLoadFactor * meanPerBlock)
		if maxEdges < 1 {
			maxEdges = 1
		}
	}

	// Build each block-row independently in parallel: scan its source rows
	// once, splitting each sorted adjacency row into per-column-block runs.
	// Chunking is weighted by each block-row's edge count, so a skewed grid
	// (hub-heavy rows next to near-empty ones) still load-balances.
	rowWeight := make([]int64, p.B+1)
	for i := 0; i < p.B; i++ {
		hi := (i + 1) * cfg.Side
		if hi > r {
			hi = r
		}
		rowWeight[i+1] = rowWeight[i] + (ptr[hi] - ptr[i*cfg.Side])
	}
	sched.ForWeighted(rowWeight, cfg.Threads, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Rows[i] = buildBlockRow(ptr, idx, r, i, cfg, maxEdges)
		}
	})

	for _, row := range p.Rows {
		lastCol := -1
		for _, sb := range row {
			sb.EntryOff = p.CompressedEntries
			p.Blocks = append(p.Blocks, sb)
			p.CompressedEntries += int64(len(sb.Srcs))
			// Blocks in a row are column-ordered, so repeats of the same
			// column index are the extra pieces splitting produced.
			if sb.BlockCol == lastCol {
				p.Splits++
			}
			lastCol = sb.BlockCol
		}
	}
	for _, sb := range p.Blocks {
		p.Cols[sb.BlockCol] = append(p.Cols[sb.BlockCol], sb)
	}
	p.buildSourceIndex(cfg.Threads)
	if col := obs.Default(cfg.Collector); col.Enabled() {
		col.Counter("block.partitions").Inc()
		col.Gauge("block.side").Set(int64(p.Side))
		col.Gauge("block.grid").Set(int64(p.B))
		col.Gauge("block.blocks").Set(int64(len(p.Blocks)))
		col.Gauge("block.splits").Set(p.Splits)
		col.Gauge("block.edges").Set(p.Nnz)
		col.Gauge("block.compressed_entries").Set(p.CompressedEntries)
		// Permille so the int64 gauge keeps two decimals of the ratio.
		col.Gauge("block.compression_ratio_permille").Set(int64(p.CompressionRatio() * 1000))
	}
	return p, nil
}

// buildSourceIndex derives the per-source entry index and the per-row/
// per-column aggregates from the finished block list. Every source belongs
// to exactly one block-row, so block-rows fill disjoint SrcEntryPtr ranges
// and the fill parallelizes without synchronisation. Within one source the
// listed slots are ascending: blocks are visited in EntryOff order.
func (p *Partition) buildSourceIndex(threads int) {
	r := p.R
	p.RowEntries = make([]int64, p.B)
	p.RowEdges = make([]int64, p.B)
	p.ColEdges = make([]int64, p.B)
	for _, sb := range p.Blocks {
		p.RowEntries[sb.BlockRow] += int64(len(sb.Srcs))
		p.RowEdges[sb.BlockRow] += sb.NumEdges()
		p.ColEdges[sb.BlockCol] += sb.NumEdges()
	}
	p.SrcEntryPtr = make([]int64, r+1)
	for _, sb := range p.Blocks {
		for _, s := range sb.Srcs {
			p.SrcEntryPtr[s+1]++
		}
	}
	for u := 0; u < r; u++ {
		p.SrcEntryPtr[u+1] += p.SrcEntryPtr[u]
	}
	if p.CompressedEntries > math.MaxUint32 {
		// Slot ids would overflow the packed index; sparse Scatter is
		// gated off and engines stream dense rows (see field docs).
		return
	}
	p.SrcEntryIdx = make([]uint32, p.CompressedEntries)
	p.SrcEntryCol = make([]int32, p.CompressedEntries)
	next := make([]int64, r)
	copy(next, p.SrcEntryPtr[:r])
	sched.For(p.B, threads, 1, func(i int) {
		for _, sb := range p.Rows[i] {
			col := int32(sb.BlockCol)
			for k, s := range sb.Srcs {
				pos := next[s]
				next[s] = pos + 1
				p.SrcEntryIdx[pos] = uint32(sb.EntryOff + int64(k))
				p.SrcEntryCol[pos] = col
			}
		}
	})
}

// builder accumulates one (block-row, block-col) cell before splitting.
type builder struct {
	srcs []graph.Node
	dst  []uint32
}

// add appends source u's run of destinations (all in this cell) to the
// cell, flagging the run's first element — or, with compression off, every
// element as a one-edge run of its own entry.
func (c *builder) add(u graph.Node, run []graph.Node, compress bool) {
	n := len(c.dst)
	c.dst = append(c.dst, run...)
	if compress {
		c.srcs = append(c.srcs, u)
		c.dst[n] |= RunStart
		return
	}
	for e := range run {
		c.srcs = append(c.srcs, u)
		c.dst[n+e] |= RunStart
	}
}

func buildBlockRow(ptr []int64, idx []graph.Node, r, i int, cfg Config, maxEdges int64) []*SubBlock {
	side := cfg.Side
	lo := i * side
	hi := lo + side
	if hi > r {
		hi = r
	}
	b := (r + side - 1) / side
	cells := make([]builder, b)
	for u := lo; u < hi; u++ {
		row := idx[ptr[u]:ptr[u+1]]
		// The row is sorted, so each destination block is one contiguous run.
		for k := 0; k < len(row); {
			j := int(row[k]) / side
			end := k + 1
			for end < len(row) && int(row[end])/side == j {
				end++
			}
			cells[j].add(graph.Node(u), row[k:end], !cfg.DisableCompression)
			k = end
		}
	}
	var out []*SubBlock
	for j := range cells {
		c := &cells[j]
		if len(c.srcs) == 0 {
			continue
		}
		out = append(out, splitCell(c, i, j, lo, hi, maxEdges)...)
	}
	return out
}

// splitCell turns one cell into one or more SubBlocks, each holding at most
// maxEdges edges (source-aligned split; a single source's run is never
// divided, so a pathological hub row can still exceed the cap by itself).
func splitCell(c *builder, i, j, lo, hi int, maxEdges int64) []*SubBlock {
	total := len(c.dst)
	if maxEdges == 0 || int64(total) <= maxEdges {
		sb := &SubBlock{
			BlockRow: i, BlockCol: j,
			SrcLo: lo, SrcHi: hi,
			Srcs: c.srcs, Dst: c.dst,
		}
		return []*SubBlock{sb}
	}
	var out []*SubBlock
	emit := func(sLo, sHi, dLo, dHi int) {
		srcs := c.srcs[sLo:sHi]
		out = append(out, &SubBlock{
			BlockRow: i, BlockCol: j,
			SrcLo: int(srcs[0]), SrcHi: int(srcs[len(srcs)-1]) + 1,
			Srcs: srcs, Dst: c.dst[dLo:dHi],
		})
	}
	// One pass over the stream: [runLo, pos) is source k's run each time pos
	// reaches a flag (or the end); a piece is cut before the run that would
	// push it past maxEdges. Pieces are subslices — the flags travel along.
	start, dLo := 0, 0 // first source and first edge of the open piece
	k, runLo := 0, 0
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
	return out
}

// Validate checks partition invariants (tests only).
func (p *Partition) Validate() error {
	var edges, entries int64
	for _, sb := range p.Blocks {
		if sb.BlockRow < 0 || sb.BlockRow >= p.B || sb.BlockCol < 0 || sb.BlockCol >= p.B {
			return fmt.Errorf("block: sub-block (%d,%d) outside %d×%d grid", sb.BlockRow, sb.BlockCol, p.B, p.B)
		}
		if sb.EntryOff != entries {
			return fmt.Errorf("block: (%d,%d) EntryOff %d, want %d", sb.BlockRow, sb.BlockCol, sb.EntryOff, entries)
		}
		for k, s := range sb.Srcs {
			if int(s)/p.Side != sb.BlockRow {
				return fmt.Errorf("block: (%d,%d) source %d outside block-row", sb.BlockRow, sb.BlockCol, s)
			}
			if k > 0 && sb.Srcs[k-1] > s {
				return fmt.Errorf("block: (%d,%d) sources not sorted", sb.BlockRow, sb.BlockCol)
			}
		}
		if err := sb.validateDst(p.Side); err != nil {
			return err
		}
		edges += sb.NumEdges()
		entries += int64(len(sb.Srcs))
	}
	if edges != p.Nnz {
		return fmt.Errorf("block: partition holds %d edges, submatrix has %d", edges, p.Nnz)
	}
	if entries != p.CompressedEntries {
		return fmt.Errorf("block: entry count mismatch %d vs %d", entries, p.CompressedEntries)
	}
	var rowCount, colCount int
	for _, r := range p.Rows {
		rowCount += len(r)
	}
	for _, c := range p.Cols {
		colCount += len(c)
	}
	if rowCount != len(p.Blocks) || colCount != len(p.Blocks) {
		return fmt.Errorf("block: row/col grouping mismatch (%d, %d, %d)", rowCount, colCount, len(p.Blocks))
	}
	return p.validateSourceIndex()
}

// validateDst checks the flagged stream: it opens with a run start, holds
// exactly one run per source, and stays inside the block's column.
func (sb *SubBlock) validateDst(side int) error {
	runs := 0
	for e, d := range sb.Dst {
		runs += int(d >> 31)
		if runs == 0 {
			return fmt.Errorf("block: (%d,%d) edge %d precedes the first run start", sb.BlockRow, sb.BlockCol, e)
		}
		if int(d&DstMask)/side != sb.BlockCol {
			return fmt.Errorf("block: (%d,%d) destination %d outside block-col", sb.BlockRow, sb.BlockCol, d&DstMask)
		}
	}
	if runs != len(sb.Srcs) {
		return fmt.Errorf("block: (%d,%d) %d destination runs for %d sources", sb.BlockRow, sb.BlockCol, runs, len(sb.Srcs))
	}
	return nil
}

// validateSourceIndex cross-checks the per-source entry index and the
// row/column aggregates against the blocks themselves.
func (p *Partition) validateSourceIndex() error {
	if len(p.SrcEntryPtr) != p.R+1 {
		return fmt.Errorf("block: SrcEntryPtr len %d, want %d", len(p.SrcEntryPtr), p.R+1)
	}
	if p.SrcEntryPtr[p.R] != p.CompressedEntries {
		return fmt.Errorf("block: SrcEntryPtr tail %d, want %d entries", p.SrcEntryPtr[p.R], p.CompressedEntries)
	}
	var rowEnt, rowEdg, colEdg int64
	for i := 0; i < p.B; i++ {
		rowEnt += p.RowEntries[i]
		rowEdg += p.RowEdges[i]
		colEdg += p.ColEdges[i]
	}
	if rowEnt != p.CompressedEntries || rowEdg != p.Nnz || colEdg != p.Nnz {
		return fmt.Errorf("block: aggregate mismatch entries=%d/%d rowEdges=%d colEdges=%d nnz=%d",
			rowEnt, p.CompressedEntries, rowEdg, colEdg, p.Nnz)
	}
	if p.SrcEntryIdx == nil {
		if p.CompressedEntries <= math.MaxUint32 && p.CompressedEntries > 0 {
			return fmt.Errorf("block: source index missing despite %d entries fitting uint32", p.CompressedEntries)
		}
		return nil
	}
	// Replay every block entry through the index: source u's cursor must
	// yield exactly (EntryOff+k, BlockCol) in block order.
	cursor := make([]int64, p.R)
	copy(cursor, p.SrcEntryPtr[:p.R])
	for _, row := range p.Rows {
		for _, sb := range row {
			for k, s := range sb.Srcs {
				pos := cursor[s]
				if pos >= p.SrcEntryPtr[s+1] {
					return fmt.Errorf("block: source %d has more entries than indexed", s)
				}
				if got, want := p.SrcEntryIdx[pos], uint32(sb.EntryOff+int64(k)); got != want {
					return fmt.Errorf("block: source %d index slot %d = %d, want %d", s, pos, got, want)
				}
				if got := p.SrcEntryCol[pos]; got != int32(sb.BlockCol) {
					return fmt.Errorf("block: source %d slot %d column %d, want %d", s, pos, got, sb.BlockCol)
				}
				cursor[s] = pos + 1
			}
		}
	}
	for u := 0; u < p.R; u++ {
		if cursor[u] != p.SrcEntryPtr[u+1] {
			return fmt.Errorf("block: source %d indexed %d entries, blocks hold %d",
				u, p.SrcEntryPtr[u+1]-p.SrcEntryPtr[u], cursor[u]-p.SrcEntryPtr[u])
		}
	}
	return nil
}

// TrafficPerIteration returns the modelled main-phase memory traffic in
// bytes per iteration following the paper's Section 5 accounting, but
// evaluated on the actual structures (so edge compression is visible):
// Scatter reads the source properties and block metadata and writes the
// bins; Cache rewrites the property segments from the static bins; Gather
// reads the bins plus destinations and writes the sums. The property width
// is a run-time choice (the partition itself is width-agnostic), so the
// caller passes the lane count of the program being modelled.
func (p *Partition) TrafficPerIteration(width int, withCache bool) int64 {
	const f = 8 // float64 lanes
	const u = 4 // uint32 ids
	if width <= 0 {
		width = 1
	}
	lanes := int64(width)
	var traffic int64
	// Scatter: read x for each compressed entry, read source ids, write vals.
	traffic += p.CompressedEntries * (f*lanes + u + f*lanes)
	// Cache: read static bin + write property segment.
	if withCache {
		traffic += 2 * int64(p.R) * f * lanes
	}
	// Gather: read vals + destination ids, accumulate into y (read+write).
	traffic += p.CompressedEntries * f * lanes
	traffic += p.Nnz * u
	traffic += 2 * int64(p.R) * f * lanes
	return traffic
}

// RandomAccessesPerIteration returns the modelled count of random memory
// jumps per iteration: O(b²) block switches (Equation 2 of the paper),
// counted exactly as the number of sub-blocks touched by Scatter plus
// Gather.
func (p *Partition) RandomAccessesPerIteration() int64 {
	return 2 * int64(len(p.Blocks))
}
