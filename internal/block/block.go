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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

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
	// performed, compression ratio, and the build's pass timings
	// (block.count_ns, block.fill_ns, block.index_ns). Nil means the no-op
	// collector.
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

	// Count, lay out, fill: a parallel pass per block-row sizes every future
	// sub-block, a serial prefix over those sizes fixes each one's place in
	// the two arenas, and a second parallel pass writes every source and
	// destination exactly once, in place.
	t0 := time.Now()
	bd := newBuild(ptr, idx, r, cfg, p.Nnz)
	bd.count()
	t1 := time.Now()
	blocks := bd.fill()
	t2 := time.Now()

	p.Blocks = make([]*SubBlock, len(blocks))
	lastRow, lastCol := -1, -1
	for k := range blocks {
		sb := &blocks[k]
		p.Blocks[k] = sb
		p.Rows[sb.BlockRow] = append(p.Rows[sb.BlockRow], sb)
		p.Cols[sb.BlockCol] = append(p.Cols[sb.BlockCol], sb)
		// Blocks in a row are column-ordered, so repeats of the same
		// column index are the extra pieces splitting produced.
		if sb.BlockRow == lastRow && sb.BlockCol == lastCol {
			p.Splits++
		}
		lastRow, lastCol = sb.BlockRow, sb.BlockCol
	}
	p.CompressedEntries = int64(len(bd.srcs))
	p.buildSourceIndex(cfg.Threads)
	if col := obs.Default(cfg.Collector); col.Enabled() {
		col.Histogram("block.count_ns").ObserveDuration(t1.Sub(t0))
		col.Histogram("block.fill_ns").ObserveDuration(t2.Sub(t1))
		col.Histogram("block.index_ns").ObserveDuration(time.Since(t2))
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
	sched.For(p.B, threads, 1, func(i int) {
		for _, sb := range p.Rows[i] {
			for _, s := range sb.Srcs {
				p.SrcEntryPtr[s+1]++
			}
		}
	})
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

// piece is one future sub-block as the count pass sizes it.
type piece struct {
	row, col       int
	srcLo, srcHi   int
	entries, edges int64
	srcOff, dstOff int64 // its place in the arenas, set by fill
}

// build is NewPartition's two-pass construction. Adjacency rows ascend, so
// a row meets each block-column as one contiguous run; a run is one bin
// entry, or one entry per edge with compression off. Both passes stream
// the same runs in the same order, so what count sizes is exactly what
// fill writes.
type build struct {
	ptr      []int64
	idx      []graph.Node
	r, side  int
	shift    int // log2(side) when side is a power of two, else -1
	b        int
	compress bool
	threads  int
	// maxEdges caps a sub-block's edges (0: no cap): a cell is cut before
	// the run that would push a non-empty piece past it. A single run is
	// never divided, so one hub source can still exceed the cap by itself.
	maxEdges int64

	weight []int64   // per-block-row edge prefix balancing both passes
	rows   [][]piece // per block-row: its pieces, column-ordered, a cell's pieces adjacent
	srcs   []graph.Node
	dst    []uint32
}

func newBuild(ptr []int64, idx []graph.Node, r int, cfg Config, nnz int64) *build {
	bd := &build{
		ptr: ptr, idx: idx, r: r, side: cfg.Side,
		b:        (r + cfg.Side - 1) / cfg.Side,
		compress: !cfg.DisableCompression,
		threads:  cfg.Threads,
		shift:    -1,
	}
	if cfg.Side&(cfg.Side-1) == 0 {
		bd.shift = bits.TrailingZeros(uint(cfg.Side))
	}
	if cfg.MaxLoadFactor > 0 {
		// A multiple of the mean edges per block of the whole submatrix.
		mean := float64(nnz) / float64(bd.b*bd.b)
		bd.maxEdges = max(1, int64(cfg.MaxLoadFactor*mean))
	}
	bd.weight = make([]int64, bd.b+1)
	for i := 0; i < bd.b; i++ {
		bd.weight[i+1] = bd.weight[i] + ptr[min((i+1)*bd.side, r)] - ptr[i*bd.side]
	}
	return bd
}

// col returns the block-column of destination d. Every side the engine
// picks is a power of two, and the shift saves a division per run.
func (bd *build) col(d graph.Node) int {
	if bd.shift >= 0 {
		return int(d >> bd.shift)
	}
	return int(d) / bd.side
}

// runs calls visit(u, j, run) for every run of block-row i: the
// destinations of source u that fall in block-column j.
func (bd *build) runs(i int, visit func(u, j int, run []graph.Node)) {
	side := bd.side
	for u := i * side; u < min((i+1)*side, bd.r); u++ {
		row := bd.idx[bd.ptr[u]:bd.ptr[u+1]]
		for k := 0; k < len(row); {
			j := bd.col(row[k])
			limit := (j + 1) * side
			end := k + 1
			for end < len(row) && int(row[end]) < limit {
				end++
			}
			visit(u, j, row[k:end])
			k = end
		}
	}
}

// count sizes every piece of every block-row.
func (bd *build) count() {
	bd.rows = make([][]piece, bd.b)
	sched.ForWeighted(bd.weight, bd.threads, 0, func(lo, hi int) {
		open := make([]int, bd.b) // per column: 1 + index of the piece being filled
		for i := lo; i < hi; i++ {
			bd.rows[i] = bd.countRow(i, open)
		}
	})
}

func (bd *build) countRow(i int, open []int) []piece {
	var pieces []piece
	bd.runs(i, func(u, j int, run []graph.Node) {
		entries, per := 1, int64(len(run))
		if !bd.compress {
			entries, per = len(run), 1
		}
		for ; entries > 0; entries-- {
			at := open[j]
			if at == 0 || bd.maxEdges > 0 && pieces[at-1].edges+per > bd.maxEdges {
				pieces = append(pieces, piece{row: i, col: j, srcLo: u})
				at = len(pieces)
				open[j] = at
			}
			pc := &pieces[at-1]
			pc.entries++
			pc.edges += per
			pc.srcHi = u + 1
		}
	})
	// Pieces were opened in source order; a stable sort by column gives the
	// Blocks order. A cell that needed no cutting covers the whole block-row.
	slices.SortStableFunc(pieces, func(a, b piece) int { return cmp.Compare(a.col, b.col) })
	for k := range pieces {
		pc := &pieces[k]
		open[pc.col] = 0
		alone := (k == 0 || pieces[k-1].col != pc.col) && (k+1 == len(pieces) || pieces[k+1].col != pc.col)
		if alone && (bd.maxEdges == 0 || pc.edges <= bd.maxEdges) {
			pc.srcLo, pc.srcHi = i*bd.side, min((i+1)*bd.side, bd.r)
		}
	}
	return pieces
}

// fill places the pieces in Blocks order (block-row by block-row, each
// row column-ordered) in ONE Srcs and ONE Dst arena of exact size, writes
// them, and returns their sub-blocks (EntryOff = offset in the Srcs
// arena). Every sub-block's slices are cap-limited windows of the arenas:
// the layout Flat describes, and an append can never reach a neighbour.
func (bd *build) fill() []SubBlock {
	var n int
	var entries, edges int64
	for i := range bd.rows {
		for k := range bd.rows[i] {
			pc := &bd.rows[i][k]
			pc.srcOff, pc.dstOff = entries, edges
			entries += pc.entries
			edges += pc.edges
		}
		n += len(bd.rows[i])
	}
	bd.srcs = make([]graph.Node, entries)
	bd.dst = make([]uint32, edges)
	blocks := make([]SubBlock, 0, n)
	for _, row := range bd.rows {
		for _, pc := range row {
			sHi, dHi := pc.srcOff+pc.entries, pc.dstOff+pc.edges
			blocks = append(blocks, SubBlock{
				BlockRow: pc.row, BlockCol: pc.col,
				SrcLo: pc.srcLo, SrcHi: pc.srcHi,
				Srcs:     bd.srcs[pc.srcOff:sHi:sHi],
				Dst:      bd.dst[pc.dstOff:dHi:dHi],
				EntryOff: pc.srcOff,
			})
		}
	}
	sched.ForWeighted(bd.weight, bd.threads, 0, func(lo, hi int) {
		srcAt, dstAt := make([]int64, bd.b), make([]int64, bd.b) // per column: write cursors
		for i := lo; i < hi; i++ {
			bd.fillRow(i, srcAt, dstAt)
		}
	})
	return blocks
}

func (bd *build) fillRow(i int, srcAt, dstAt []int64) {
	// A cell's pieces are adjacent in both arenas, so one cursor pair per
	// cell, started at its first piece, writes all of them.
	for k, pc := range bd.rows[i] {
		if k == 0 || bd.rows[i][k-1].col != pc.col {
			srcAt[pc.col], dstAt[pc.col] = pc.srcOff, pc.dstOff
		}
	}
	srcs, dst := bd.srcs, bd.dst
	bd.runs(i, func(u, j int, run []graph.Node) {
		s, d := srcAt[j], dstAt[j]
		if bd.compress {
			srcs[s] = graph.Node(u)
			s++
			dst[d] = run[0] | RunStart
			copy(dst[d+1:], run[1:])
			d += int64(len(run))
		} else {
			for _, v := range run {
				srcs[s] = graph.Node(u)
				s++
				dst[d] = v | RunStart
				d++
			}
		}
		srcAt[j], dstAt[j] = s, d
	})
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
