package block

import (
	"fmt"
	"sort"

	"mixen/internal/graph"
	"mixen/internal/obs"
)

// Sharding splits an r×r submatrix into S contiguous node ranges ("shards"),
// each owning its own diagonal Partition, plus the cross-shard edges
// extracted into per-(source-shard, dest-shard) outbox blocks — the
// propagation-blocking exchange structure of the sharded engine.
//
// Shard boundaries are aligned to multiples of the partition Side, so a
// shard is a contiguous run of whole block rows/columns of the SAME global
// grid the single-partition engine would build. That alignment is what makes
// sharded execution bit-identical to single-partition execution: every
// global block-column exists unchanged, every destination folds its
// contributions in the same globally-ascending source order, and the
// per-column convergence deltas group identically.
//
// Id mapping: shard t owns global ids [Lo[t], Lo[t+1]) and global block
// rows/columns [LoBlock[t], LoBlock[t+1]); the (shard, local) form of a
// global id u is (ShardOf(u), u - Lo[shard]). The structures below keep
// GLOBAL ids throughout — the mapping is pure arithmetic, so no translation
// tables are needed.
//
// Bin layout (the exchange contract): the combined execution partition Exec
// concatenates every shard's local bin segment, then every (s,t) outbox:
//
//	[ shard0 local | shard1 local | ... | outbox s→t in (s,t) order ... ]
//
// Scatter writes cross-shard contributions into the outbox segment exactly
// like local bins (propagation blocking: binned by destination block, never
// scattered into remote gather buffers); the destination shard drains each
// inbox during Gather, folding inbox blocks from lower-numbered shards
// before its own local blocks and inboxes from higher-numbered shards after
// them — global block-row order, which IS ascending global source order.
type Sharding struct {
	S    int   // shard count after clamping to [1, max(1,B)]
	R    int   // submatrix dimension
	Side int   // block side shared by every shard and the global grid
	B    int   // global block rows/columns = ceil(R/Side)
	Nnz  int64 // total edges (local + cut)

	Lo      []int // len S+1: node-id boundary of each shard (Side-aligned)
	LoBlock []int // len S+1: block-index boundary of each shard

	// BlockShard maps a global block row/column index to its owning shard.
	BlockShard []int32

	// Local holds each shard's diagonal partition: the subgraph of edges
	// whose source AND destination both fall in the shard, blocked on the
	// global grid (R, Side and B match the Sharding; block indices are
	// global). Each is a self-contained, independently valid Partition with
	// its own entry space — the unit a per-shard serialization would write.
	Local []*Partition

	// LocalEntryOff[t] is shard t's first bin entry in Exec's combined
	// entry space; the shard's local segment is
	// [LocalEntryOff[t], LocalEntryOff[t+1]).
	LocalEntryOff []int64

	// Cut holds the cross-shard blocks in (srcShard, dstShard, blockRow,
	// blockCol, piece) order — the same order their Exec bin entries are
	// laid out in, so each s→t outbox is one contiguous segment. Ids are
	// global on both sides.
	Cut []*SubBlock

	// CutEntryOff is Exec's first cut-bin entry (== LocalEntryOff[S]).
	CutEntryOff int64
	CutEntries  int64 // compressed entries across all outboxes
	CutEdges    int64 // edges across all outboxes

	// OutboxEntries/OutboxEdges count each s→t outbox ([S][S]; the diagonal
	// is zero). The s→t outbox occupies bin entries
	// [OutboxOff[s][t], OutboxOff[s][t]+OutboxEntries[s][t]).
	OutboxEntries [][]int64
	OutboxEdges   [][]int64
	OutboxOff     [][]int64

	// Per-row/column cut aggregates on the global grid: CutRowEntries[i] is
	// the outbox entries sourced from block-row i (the exchange traffic a
	// dense scatter of that row produces), CutColEdges[j] the inbox edges
	// block-column j drains.
	CutRowEntries []int64
	CutRowEdges   []int64
	CutColEdges   []int64

	// CutSrcEntryPtr[u+1]-CutSrcEntryPtr[u] counts source u's outbox
	// entries (prefix form, len R+1) — the per-source exchange traffic a
	// sparse scatter of u produces.
	CutSrcEntryPtr []int64

	// Exec is the combined execution partition: every shard's blocks plus
	// every cut block on the one global grid, with bin entries laid out as
	// documented above. It is a valid Partition of the full submatrix whose
	// per-destination fold order matches the single-partition build, so the
	// engine iterates it with the unmodified SCGA kernels. Exec.Blocks
	// lists all local blocks first (shard-major), then Cut verbatim;
	// NumLocalBlocks marks the boundary.
	Exec           *Partition
	NumLocalBlocks int
}

// ShardOf returns the shard owning global id u.
func (sh *Sharding) ShardOf(u int) int {
	return sort.SearchInts(sh.Lo[1:], u+1)
}

// LocalID converts a global id to its (shard, local) form.
func (sh *Sharding) LocalID(u int) (shard, local int) {
	s := sh.ShardOf(u)
	return s, u - sh.Lo[s]
}

// PlanShards splits B blocks into at most s contiguous groups balanced by
// weight (typically per-block edge counts), each group non-empty. Returns
// the block boundaries (len groups+1, first 0, last B).
func PlanShards(weights []int64, s int) []int {
	b := len(weights)
	if s < 1 {
		s = 1
	}
	if s > b {
		s = b
	}
	if b == 0 {
		return []int{0, 0}
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	bounds := make([]int, 0, s+1)
	bounds = append(bounds, 0)
	remaining := total
	cur := 0
	for t := 0; t < s; t++ {
		left := s - t // groups still to place, including this one
		// Fair share of what remains; the last group takes everything.
		target := remaining / int64(left)
		var acc int64
		end := cur
		for end < b {
			// Must leave at least one block per remaining group.
			if b-end <= left-1 {
				break
			}
			w := weights[end]
			// Stop once the target is met — but always take one block.
			if end > cur && acc+w/2 > target {
				break
			}
			acc += w
			end++
		}
		if end == cur { // ensure progress even with zero weights
			end = cur + 1
		}
		bounds = append(bounds, end)
		remaining -= acc
		cur = end
	}
	bounds[len(bounds)-1] = b
	return bounds
}

// NewSharding builds the S-way sharded form of the square submatrix given
// by ptr/idx (the same CSR NewPartition takes). cfg.Side of 0 picks
// DefaultSide exactly as the single-partition build would, so the sharded
// grid matches the grid a plain NewPartition(ptr, idx, r, cfg) produces.
func NewSharding(ptr []int64, idx []graph.Node, r, shards int, cfg Config) (*Sharding, error) {
	if r < 0 || len(ptr) != r+1 {
		return nil, fmt.Errorf("block: bad csr, r=%d len(ptr)=%d", r, len(ptr))
	}
	if cfg.MaxLoadFactor < 0 {
		return nil, fmt.Errorf("block: negative load factor %v", cfg.MaxLoadFactor)
	}
	if cfg.Side <= 0 {
		cfg.Side = DefaultSide(r, cfg.Threads)
	}
	side := cfg.Side
	b := 0
	if r > 0 {
		b = (r + side - 1) / side
	}
	sh := &Sharding{
		R:    r,
		Side: side,
		B:    b,
		Nnz:  ptr[r],
	}

	// Shard boundaries: contiguous block runs balanced by per-block
	// in+out edge weight (scatter reads rows, gather drains columns, so
	// both sides price a shard's work).
	weights := make([]int64, b)
	for i := 0; i < b; i++ {
		hi := (i + 1) * side
		if hi > r {
			hi = r
		}
		weights[i] = ptr[hi] - ptr[i*side]
	}
	for _, d := range idx {
		weights[int(d)/side]++
	}
	blockBounds := PlanShards(weights, shards)
	s := len(blockBounds) - 1
	if s < 1 {
		s = 1
		blockBounds = []int{0, b}
	}
	sh.S = s
	sh.LoBlock = blockBounds
	sh.Lo = make([]int, s+1)
	for t := 1; t < s; t++ {
		sh.Lo[t] = blockBounds[t] * side
	}
	sh.Lo[s] = r
	sh.BlockShard = make([]int32, b)
	for t := 0; t < s; t++ {
		for i := blockBounds[t]; i < blockBounds[t+1]; i++ {
			sh.BlockShard[i] = int32(t)
		}
	}

	if err := sh.buildLocal(ptr, idx, cfg); err != nil {
		return nil, err
	}
	sh.buildCut(ptr, idx, cfg)
	sh.assembleExec(cfg)
	if col := obs.Default(cfg.Collector); col.Enabled() {
		col.Counter("block.shardings").Inc()
		col.Gauge("block.shards").Set(int64(sh.S))
		col.Gauge("block.cut_edges").Set(sh.CutEdges)
		col.Gauge("block.cut_entries").Set(sh.CutEntries)
		if sh.Nnz > 0 {
			col.Gauge("block.cut_edge_permille").Set(1000 * sh.CutEdges / sh.Nnz)
		}
	}
	return sh, nil
}

// buildLocal extracts each shard's diagonal subgraph as a masked CSR on the
// global id space (rows outside the shard empty, columns filtered to the
// shard) and partitions it on the shared global grid.
func (sh *Sharding) buildLocal(ptr []int64, idx []graph.Node, cfg Config) error {
	s := sh.S
	sh.Local = make([]*Partition, s)
	sh.LocalEntryOff = make([]int64, s+1)
	for t := 0; t < s; t++ {
		lo, hi := sh.Lo[t], sh.Lo[t+1]
		localPtr := make([]int64, sh.R+1)
		var cnt int64
		for u := lo; u < hi; u++ {
			for _, d := range idx[ptr[u]:ptr[u+1]] {
				if int(d) >= lo && int(d) < hi {
					cnt++
				}
			}
			localPtr[u+1] = cnt
		}
		for u := hi; u < sh.R; u++ {
			localPtr[u+1] = cnt
		}
		localIdx := make([]graph.Node, cnt)
		var w int64
		for u := lo; u < hi; u++ {
			for _, d := range idx[ptr[u]:ptr[u+1]] {
				if int(d) >= lo && int(d) < hi {
					localIdx[w] = d
					w++
				}
			}
		}
		// Scale the load factor so maxEdges (a multiple of the GLOBAL mean
		// edges per block) matches the single-partition build's threshold.
		lcfg := cfg
		lcfg.Collector = nil
		if lcfg.MaxLoadFactor > 0 && cnt > 0 {
			lcfg.MaxLoadFactor *= float64(sh.Nnz) / float64(cnt)
		}
		p, err := NewPartition(localPtr, localIdx, sh.R, lcfg)
		if err != nil {
			return fmt.Errorf("block: shard %d: %w", t, err)
		}
		sh.Local[t] = p
	}
	return nil
}

// buildCut extracts every cross-shard edge into outbox blocks: one cell per
// (global block-row, global block-col) pair whose row and column belong to
// different shards, built and split by the same two passes as local cells
// (the cap is the same multiple of the GLOBAL mean, keeping split
// granularity comparable). The final Cut order is (srcShard, dstShard, row,
// col, piece) so each s→t outbox occupies one contiguous run of blocks
// (and, after assembleExec, of bin entries).
func (sh *Sharding) buildCut(ptr []int64, idx []graph.Node, cfg Config) {
	b := sh.B
	sh.CutRowEntries = make([]int64, b)
	sh.CutRowEdges = make([]int64, b)
	sh.CutColEdges = make([]int64, b)
	sh.CutSrcEntryPtr = make([]int64, sh.R+1)
	sh.OutboxEntries = make([][]int64, sh.S)
	sh.OutboxEdges = make([][]int64, sh.S)
	sh.OutboxOff = make([][]int64, sh.S)
	for t := 0; t < sh.S; t++ {
		sh.OutboxEntries[t] = make([]int64, sh.S)
		sh.OutboxEdges[t] = make([]int64, sh.S)
		sh.OutboxOff[t] = make([]int64, sh.S)
	}
	if b == 0 {
		return
	}
	bd := newBuild(ptr, idx, sh.R, cfg, sh.Nnz)
	bd.shardOf = sh.BlockShard
	bd.count()

	// Order the pieces (srcShard, dstShard, row, col). Rows of one shard
	// are contiguous, and BlockShard is monotone over columns, so a single
	// (s, t) sweep over the shard's rows picking cells in t's column range
	// yields the outbox order.
	var order []*piece
	for s := 0; s < sh.S; s++ {
		for t := 0; t < sh.S; t++ {
			if t == s {
				continue
			}
			for i := sh.LoBlock[s]; i < sh.LoBlock[s+1]; i++ {
				for k := range bd.rows[i] {
					pc := &bd.rows[i][k]
					if int(sh.BlockShard[pc.col]) != t {
						continue
					}
					order = append(order, pc)
					sh.OutboxEntries[s][t] += pc.entries
					sh.OutboxEdges[s][t] += pc.edges
					sh.CutRowEntries[i] += pc.entries
					sh.CutRowEdges[i] += pc.edges
					sh.CutColEdges[pc.col] += pc.edges
				}
			}
		}
	}
	blocks := bd.fill(order)
	sh.Cut = make([]*SubBlock, len(blocks))
	for k := range blocks {
		sh.Cut[k] = &blocks[k]
		for _, src := range blocks[k].Srcs {
			sh.CutSrcEntryPtr[src+1]++
		}
	}
	sh.CutEntries, sh.CutEdges = int64(len(bd.srcs)), int64(len(bd.dst))
	for u := 0; u < sh.R; u++ {
		sh.CutSrcEntryPtr[u+1] += sh.CutSrcEntryPtr[u]
	}
}

// assembleExec merges the shard-local partitions and the cut blocks into
// the combined execution partition. Local blocks are shallow-copied (the
// topology slices are shared; only EntryOff is rewritten into the combined
// entry space), so each Local partition stays independently valid.
func (sh *Sharding) assembleExec(cfg Config) {
	p := &Partition{
		R:    sh.R,
		Side: sh.Side,
		B:    sh.B,
		Nnz:  sh.Nnz,
	}
	sh.Exec = p
	if sh.B == 0 {
		p.buildSourceIndex(cfg.Threads)
		return
	}

	// Blocks: shard-major local copies, then the cut blocks verbatim.
	// EntryOff is assigned in this order, which realises the documented
	// bin layout (per-shard local segments, then per-(s,t) outboxes).
	rows := make([][]*SubBlock, sh.B)
	for t, lp := range sh.Local {
		sh.LocalEntryOff[t] = p.CompressedEntries
		for i := sh.LoBlock[t]; i < sh.LoBlock[t+1]; i++ {
			for _, sb := range lp.Rows[i] {
				cp := *sb
				cp.EntryOff = p.CompressedEntries
				p.CompressedEntries += int64(len(cp.Srcs))
				p.Blocks = append(p.Blocks, &cp)
				rows[i] = append(rows[i], &cp)
			}
		}
		p.Splits += lp.Splits
	}
	sh.LocalEntryOff[sh.S] = p.CompressedEntries
	sh.NumLocalBlocks = len(p.Blocks)
	sh.CutEntryOff = p.CompressedEntries
	for s := range sh.OutboxOff {
		for t := range sh.OutboxOff[s] {
			sh.OutboxOff[s][t] = -1
		}
	}
	for _, sb := range sh.Cut {
		s, t := sh.BlockShard[sb.BlockRow], sh.BlockShard[sb.BlockCol]
		if sh.OutboxOff[s][t] < 0 {
			sh.OutboxOff[s][t] = p.CompressedEntries
		}
		sb.EntryOff = p.CompressedEntries
		p.CompressedEntries += int64(len(sb.Srcs))
		p.Blocks = append(p.Blocks, sb)
		rows[sb.BlockRow] = append(rows[sb.BlockRow], sb)
	}
	for s := range sh.OutboxOff {
		for t := range sh.OutboxOff[s] {
			if sh.OutboxOff[s][t] < 0 {
				sh.OutboxOff[s][t] = 0
			}
		}
	}

	// Rows: column-then-source order within each block-row (the order
	// NewPartition produces), merging the local run with the cut cells.
	// Cols follows from Rows exactly like NewPartition, so every global
	// block-column folds its blocks in ascending block-row (== ascending
	// global source) order — the bit-identity invariant.
	p.Rows = rows
	p.Cols = make([][]*SubBlock, sh.B)
	for _, row := range p.Rows {
		sort.SliceStable(row, func(a, b int) bool {
			if row[a].BlockCol != row[b].BlockCol {
				return row[a].BlockCol < row[b].BlockCol
			}
			return row[a].SrcLo < row[b].SrcLo
		})
		// Splits of local cells are already counted per shard; add the
		// extra pieces cut-cell splitting produced.
		lastCol := -1
		for _, sb := range row {
			if sb.BlockCol == lastCol && sb.EntryOff >= sh.CutEntryOff {
				p.Splits++
			}
			lastCol = sb.BlockCol
		}
	}
	for _, row := range p.Rows {
		for _, sb := range row {
			p.Cols[sb.BlockCol] = append(p.Cols[sb.BlockCol], sb)
		}
	}
	p.buildSourceIndex(cfg.Threads)
}

// CutFraction returns the fraction of edges crossing shards.
func (sh *Sharding) CutFraction() float64 {
	if sh.Nnz == 0 {
		return 0
	}
	return float64(sh.CutEdges) / float64(sh.Nnz)
}

// ShardNodes returns the node count owned by shard t.
func (sh *Sharding) ShardNodes(t int) int { return sh.Lo[t+1] - sh.Lo[t] }

// ShardLocalEdges returns the within-shard edge count of shard t.
func (sh *Sharding) ShardLocalEdges(t int) int64 { return sh.Local[t].Nnz }

// ShardOutEdges returns shard t's outgoing cut edges (its outbox traffic).
func (sh *Sharding) ShardOutEdges(t int) int64 {
	var total int64
	for u := 0; u < sh.S; u++ {
		total += sh.OutboxEdges[t][u]
	}
	return total
}

// ShardInEdges returns shard t's incoming cut edges (its inbox traffic).
func (sh *Sharding) ShardInEdges(t int) int64 {
	var total int64
	for u := 0; u < sh.S; u++ {
		total += sh.OutboxEdges[u][t]
	}
	return total
}

// Validate checks every sharding invariant (tests only): boundary
// alignment, per-shard partition validity and containment, outbox ordering
// and aggregate consistency, and the combined execution partition.
func (sh *Sharding) Validate() error {
	if sh.S < 1 || len(sh.Lo) != sh.S+1 || len(sh.LoBlock) != sh.S+1 {
		return fmt.Errorf("block: sharding has %d shards, %d/%d bounds", sh.S, len(sh.Lo), len(sh.LoBlock))
	}
	if sh.Lo[0] != 0 || sh.Lo[sh.S] != sh.R || sh.LoBlock[0] != 0 || sh.LoBlock[sh.S] != sh.B {
		return fmt.Errorf("block: sharding bounds do not cover [0,%d)/[0,%d)", sh.R, sh.B)
	}
	for t := 0; t < sh.S; t++ {
		if sh.LoBlock[t] >= sh.LoBlock[t+1] && sh.B > 0 {
			return fmt.Errorf("block: shard %d is empty", t)
		}
		if t > 0 && sh.Lo[t] != sh.LoBlock[t]*sh.Side {
			return fmt.Errorf("block: shard %d boundary %d not Side-aligned", t, sh.Lo[t])
		}
	}
	var localNnz, localEntries int64
	for t, lp := range sh.Local {
		if err := lp.Validate(); err != nil {
			return fmt.Errorf("block: shard %d: %w", t, err)
		}
		if lp.R != sh.R || lp.Side != sh.Side || lp.B != sh.B {
			return fmt.Errorf("block: shard %d grid (%d,%d,%d) != sharding grid (%d,%d,%d)",
				t, lp.R, lp.Side, lp.B, sh.R, sh.Side, sh.B)
		}
		for _, sb := range lp.Blocks {
			if sb.BlockRow < sh.LoBlock[t] || sb.BlockRow >= sh.LoBlock[t+1] ||
				sb.BlockCol < sh.LoBlock[t] || sb.BlockCol >= sh.LoBlock[t+1] {
				return fmt.Errorf("block: shard %d local block (%d,%d) outside shard range",
					t, sb.BlockRow, sb.BlockCol)
			}
		}
		localNnz += lp.Nnz
		localEntries += lp.CompressedEntries
		if sh.LocalEntryOff[t+1]-sh.LocalEntryOff[t] != lp.CompressedEntries {
			return fmt.Errorf("block: shard %d entry segment %d entries, partition has %d",
				t, sh.LocalEntryOff[t+1]-sh.LocalEntryOff[t], lp.CompressedEntries)
		}
	}
	if localNnz+sh.CutEdges != sh.Nnz {
		return fmt.Errorf("block: local %d + cut %d edges != %d", localNnz, sh.CutEdges, sh.Nnz)
	}
	// Cut ordering and containment.
	lastKey := [4]int{-1, -1, -1, -1}
	var cutEntries, cutEdges int64
	for _, sb := range sh.Cut {
		s := int(sh.BlockShard[sb.BlockRow])
		t := int(sh.BlockShard[sb.BlockCol])
		if s == t {
			return fmt.Errorf("block: cut block (%d,%d) is shard-local", sb.BlockRow, sb.BlockCol)
		}
		key := [4]int{s, t, sb.BlockRow, sb.BlockCol}
		for d := 0; d < 4; d++ {
			if key[d] != lastKey[d] {
				if key[d] < lastKey[d] {
					return fmt.Errorf("block: cut blocks out of outbox order at (%d,%d)", sb.BlockRow, sb.BlockCol)
				}
				break
			}
		}
		lastKey = key
		for _, src := range sb.Srcs {
			if int(src)/sh.Side != sb.BlockRow {
				return fmt.Errorf("block: cut (%d,%d) source %d outside row", sb.BlockRow, sb.BlockCol, src)
			}
		}
		if err := sb.validateDst(sh.Side); err != nil {
			return fmt.Errorf("block: cut: %w", err)
		}
		cutEntries += int64(len(sb.Srcs))
		cutEdges += sb.NumEdges()
	}
	if cutEntries != sh.CutEntries || cutEdges != sh.CutEdges {
		return fmt.Errorf("block: cut totals %d/%d, aggregates say %d/%d",
			cutEntries, cutEdges, sh.CutEntries, sh.CutEdges)
	}
	if sh.CutSrcEntryPtr[sh.R] != sh.CutEntries {
		return fmt.Errorf("block: CutSrcEntryPtr tail %d != %d", sh.CutSrcEntryPtr[sh.R], sh.CutEntries)
	}
	var rowEnt, colEdg int64
	for i := 0; i < sh.B; i++ {
		rowEnt += sh.CutRowEntries[i]
		colEdg += sh.CutColEdges[i]
	}
	if rowEnt != sh.CutEntries || colEdg != sh.CutEdges {
		return fmt.Errorf("block: cut row/col aggregates %d/%d != %d/%d",
			rowEnt, colEdg, sh.CutEntries, sh.CutEdges)
	}
	// Combined execution partition.
	if sh.Exec.CompressedEntries != localEntries+sh.CutEntries {
		return fmt.Errorf("block: exec entries %d != local %d + cut %d",
			sh.Exec.CompressedEntries, localEntries, sh.CutEntries)
	}
	if sh.CutEntryOff != localEntries {
		return fmt.Errorf("block: cut entry segment starts at %d, local entries end at %d",
			sh.CutEntryOff, localEntries)
	}
	if got := len(sh.Exec.Blocks) - len(sh.Cut); got != sh.NumLocalBlocks {
		return fmt.Errorf("block: NumLocalBlocks %d, exec has %d local blocks", sh.NumLocalBlocks, got)
	}
	for bi, sb := range sh.Exec.Blocks {
		isCut := int(sh.BlockShard[sb.BlockRow]) != int(sh.BlockShard[sb.BlockCol])
		if isCut != (bi >= sh.NumLocalBlocks) {
			return fmt.Errorf("block: exec block %d on the wrong side of the local/cut boundary", bi)
		}
	}
	return sh.Exec.Validate()
}
