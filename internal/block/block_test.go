package block

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mixen/internal/filter"
	"mixen/internal/gen"
	"mixen/internal/graph"
)

// makeCSR builds a small square CSR from an edge list over r nodes.
func makeCSR(t testing.TB, r int, edges []graph.Edge) ([]int64, []graph.Node) {
	t.Helper()
	g, err := graph.FromEdges(r, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g.OutPtr, g.OutIdx
}

func TestPartitionTiny(t *testing.T) {
	// 6 nodes, side 2 -> 3x3 grid.
	ptr, idx := makeCSR(t, 6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 4}, {Src: 1, Dst: 2}, {Src: 3, Dst: 3}, {Src: 5, Dst: 0}, {Src: 5, Dst: 1},
	})
	p, err := NewPartition(ptr, idx, 6, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.B != 3 {
		t.Fatalf("B = %d, want 3", p.B)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Nnz != 6 {
		t.Fatalf("nnz = %d, want 6", p.Nnz)
	}
	// Block (0,0) holds 0->1; block (0,2) holds 0->4; block (0,1) holds 1->2;
	// block (1,1) holds 3->3; block (2,0) holds 5->0 and 5->1 compressed to
	// one entry.
	if len(p.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(p.Blocks))
	}
	var b20 *SubBlock
	for _, sb := range p.Blocks {
		if sb.BlockRow == 2 && sb.BlockCol == 0 {
			b20 = sb
		}
	}
	if b20 == nil {
		t.Fatal("missing block (2,0)")
	}
	if b20.NumEntries() != 1 || b20.NumEdges() != 2 {
		t.Fatalf("block (2,0): entries=%d edges=%d, want 1 compressed entry with 2 edges",
			b20.NumEntries(), b20.NumEdges())
	}
}

func TestPartitionNoCompression(t *testing.T) {
	ptr, idx := makeCSR(t, 4, []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
	})
	p, err := NewPartition(ptr, idx, 4, Config{Side: 4, DisableCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CompressedEntries != 4 {
		t.Fatalf("entries = %d, want 4 (one per edge)", p.CompressedEntries)
	}
	pc, err := NewPartition(ptr, idx, 4, Config{Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pc.CompressedEntries != 1 {
		t.Fatalf("compressed entries = %d, want 1", pc.CompressedEntries)
	}
}

func TestPartitionEmpty(t *testing.T) {
	p, err := NewPartition([]int64{0}, nil, 0, Config{Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.B != 0 || len(p.Blocks) != 0 {
		t.Fatal("empty partition should have no blocks")
	}
}

func TestPartitionBadInput(t *testing.T) {
	if _, err := NewPartition([]int64{0, 1}, []graph.Node{0}, 3, Config{}); err == nil {
		t.Fatal("expected error for r / ptr mismatch")
	}
	if _, err := NewPartition([]int64{0}, nil, -1, Config{}); err == nil {
		t.Fatal("expected error for negative r")
	}
	if _, err := NewPartition([]int64{0, 0}, nil, 1, Config{MaxLoadFactor: -1}); err == nil {
		t.Fatal("expected error for negative load factor")
	}
}

func TestOverloadSplitting(t *testing.T) {
	// One hub row with 64 edges into one column block, plus sparse rows.
	var edges []graph.Edge
	for d := 0; d < 32; d++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.Node(d)},
			graph.Edge{Src: 1, Dst: graph.Node(d)})
	}
	for u := 2; u < 32; u++ {
		edges = append(edges, graph.Edge{Src: graph.Node(u), Dst: graph.Node(u)})
	}
	ptr, idx := makeCSR(t, 32, edges)

	unsplit, err := NewPartition(ptr, idx, 32, Config{Side: 8, MaxLoadFactor: 0})
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewPartition(ptr, idx, 32, Config{Side: 8, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(split.Blocks) <= len(unsplit.Blocks) {
		t.Fatalf("splitting did not create extra sub-blocks: %d vs %d",
			len(split.Blocks), len(unsplit.Blocks))
	}
	// Edge conservation under splitting.
	if split.Nnz != unsplit.Nnz {
		t.Fatal("splitting changed edge count")
	}
}

func TestSplitRespectsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var edges []graph.Edge
	for i := 0; i < 2000; i++ {
		edges = append(edges, graph.Edge{Src: graph.Node(rng.Intn(64)), Dst: graph.Node(rng.Intn(64))})
	}
	ptr, idx := makeCSR(t, 64, edges)
	p, err := NewPartition(ptr, idx, 64, Config{Side: 16, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	mean := float64(p.Nnz) / float64(p.B*p.B)
	cap64 := int64(2 * mean)
	for _, sb := range p.Blocks {
		// A single source's run may exceed the cap; otherwise enforce it.
		if sb.NumEdges() > cap64 && len(sb.Srcs) > 1 {
			t.Fatalf("sub-block (%d,%d) has %d edges, cap %d, %d sources",
				sb.BlockRow, sb.BlockCol, sb.NumEdges(), cap64, len(sb.Srcs))
		}
	}
}

func TestDefaultSide(t *testing.T) {
	if s := DefaultSide(1_000_000, 1); s != 32*1024 {
		t.Fatalf("side = %d, want 32768 for large r", s)
	}
	s := DefaultSide(2048, 4)
	if (2048+s-1)/s < 4 {
		t.Fatalf("side %d yields fewer than 4 blocks for r=2048", s)
	}
	if s := DefaultSide(10, 8); s < 256 {
		t.Fatalf("side %d below floor", s)
	}
}

func TestPartitionOnFilteredGraph(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 3000, M: 24000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.25, ZipfV: 1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := filter.Filter(g)
	p, err := NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, Config{Side: 128, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Nnz != f.RegularEdges() {
		t.Fatalf("partition nnz %d != regular edges %d", p.Nnz, f.RegularEdges())
	}
	if p.CompressedEntries > p.Nnz {
		t.Fatal("compression must not increase entry count")
	}
}

func TestTrafficModelMonotonic(t *testing.T) {
	ptr, idx := makeCSR(t, 16, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
	p, err := NewPartition(ptr, idx, 16, Config{Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	with := p.TrafficPerIteration(1, true)
	without := p.TrafficPerIteration(1, false)
	if with <= without {
		t.Fatal("cache step must add traffic to the per-iteration model")
	}
	if p.RandomAccessesPerIteration() != 2*int64(len(p.Blocks)) {
		t.Fatal("random access model must count 2 visits per sub-block")
	}
}

func TestPropertyPartitionConservesEdges(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(80)
		m := rng.Intn(400)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.Node(rng.Intn(r)), Dst: graph.Node(rng.Intn(r))}
		}
		g, err := graph.FromEdges(r, edges)
		if err != nil {
			return false
		}
		side := 1 + rng.Intn(r)
		lf := float64(rng.Intn(3)) // 0 (off), 1, 2
		p, err := NewPartition(g.OutPtr, g.OutIdx, r, Config{Side: side, MaxLoadFactor: lf})
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Every original edge must be recoverable from the partition exactly once.
func TestPropertyEdgeRecovery(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(60)
		edges := make([]graph.Edge, rng.Intn(300))
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.Node(rng.Intn(r)), Dst: graph.Node(rng.Intn(r))}
		}
		g, err := graph.FromEdges(r, edges)
		if err != nil {
			return false
		}
		p, err := NewPartition(g.OutPtr, g.OutIdx, r, Config{Side: 1 + rng.Intn(r), MaxLoadFactor: 2})
		if err != nil {
			return false
		}
		var recovered []graph.Edge
		for _, sb := range p.Blocks {
			k := -1
			for _, d := range sb.Dst {
				k += int(d >> 31)
				recovered = append(recovered, graph.Edge{Src: sb.Srcs[k], Dst: d & DstMask})
			}
		}
		g2, err := graph.FromEdges(r, recovered)
		if err != nil {
			return false
		}
		if g2.NumEdges() != g.NumEdges() {
			return false
		}
		for u := 0; u < r; u++ {
			a, b := g.OutNeighbors(graph.Node(u)), g2.OutNeighbors(graph.Node(u))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Decoding Dst by its run-start flags must give back, for every source, its
// adjacency row cut at block-column boundaries: one run per (source, cell)
// with compression on — whole, also in a split cell's pieces — and one
// single-edge run per edge with it off, in adjacency order either way.
func TestPropertyFlaggedStreamDecodesAdjacencyRuns(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(80)
		edges := make([]graph.Edge, rng.Intn(600))
		for i := range edges {
			// Squaring skews the sources, so some cells overload and split.
			u := rng.Intn(r) * rng.Intn(r) / r
			edges[i] = graph.Edge{Src: graph.Node(u), Dst: graph.Node(rng.Intn(r))}
		}
		g, err := graph.FromEdges(r, edges)
		if err != nil {
			return false
		}
		side := 1 + rng.Intn(r)
		for _, cfg := range []Config{
			{Side: side}, // unsplit cells
			{Side: side, MaxLoadFactor: 0.5 + rng.Float64()},
			{Side: side, MaxLoadFactor: 1, DisableCompression: true},
		} {
			p, err := NewPartition(g.OutPtr, g.OutIdx, r, cfg)
			if err != nil || p.Validate() != nil {
				return false
			}
			if cfg.MaxLoadFactor == 0 && p.Splits != 0 {
				return false
			}
			// got[u][j] collects source u's decoded runs into column j, in
			// Blocks order (split pieces of a cell are adjacent).
			got := make([]map[int][][]graph.Node, r)
			for _, sb := range p.Blocks {
				k := -1
				for _, d := range sb.Dst {
					if d&RunStart != 0 {
						k++
						u := sb.Srcs[k]
						if got[u] == nil {
							got[u] = map[int][][]graph.Node{}
						}
						got[u][sb.BlockCol] = append(got[u][sb.BlockCol], nil)
					}
					if k < 0 {
						return false
					}
					runs := got[sb.Srcs[k]][sb.BlockCol]
					runs[len(runs)-1] = append(runs[len(runs)-1], d&DstMask)
				}
				if k != len(sb.Srcs)-1 {
					return false
				}
			}
			for u := 0; u < r; u++ {
				row := g.OutNeighbors(graph.Node(u))
				cols := 0
				for lo := 0; lo < len(row); {
					j := int(row[lo]) / side
					hi := lo
					for hi < len(row) && int(row[hi])/side == j {
						hi++
					}
					cols++
					runs := got[u][j]
					if cfg.DisableCompression {
						if len(runs) != hi-lo {
							return false
						}
						for e, run := range runs {
							if len(run) != 1 || run[0] != row[lo+e] {
								return false
							}
						}
					} else if len(runs) != 1 || !slices.Equal(runs[0], row[lo:hi]) {
						return false
					}
					lo = hi
				}
				if len(got[u]) != cols {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRejectsUnaddressableSize: ids must fit the 31 bits the
// flagged stream leaves them.
func TestPartitionRejectsUnaddressableSize(t *testing.T) {
	const r = MaxNodes + 1
	if _, err := NewPartition(nil, nil, r, Config{}); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("NewPartition on r > 2^31: %v, want the size error", err)
	}
	if _, err := AssembleFlat(Flat{R: r, Side: 1 << 20}); err == nil {
		t.Fatal("AssembleFlat accepted r > 2^31")
	}
}

// TestEntryOffsetsIndexFlatBins verifies the contract workspaces rely on:
// EntryOff values form an exact prefix sum of per-block entry counts over
// Blocks, so a flat array of CompressedEntries*width values gives every
// block a disjoint bin slice.
func TestEntryOffsetsIndexFlatBins(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(9, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g.OutPtr, g.OutIdx, g.NumNodes(), Config{Side: 64, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for _, sb := range p.Blocks {
		if sb.EntryOff != off {
			t.Fatalf("block (%d,%d): EntryOff = %d, want %d", sb.BlockRow, sb.BlockCol, sb.EntryOff, off)
		}
		off += int64(len(sb.Srcs))
	}
	if off != p.CompressedEntries {
		t.Fatalf("EntryOff prefix sum ends at %d, CompressedEntries = %d", off, p.CompressedEntries)
	}
	// Width is a per-run property now: the partition models traffic for any
	// lane count without being rebuilt.
	if t1, t4 := p.TrafficPerIteration(1, true), p.TrafficPerIteration(4, true); t4 <= t1 {
		t.Fatalf("traffic should grow with width: w=1 %d, w=4 %d", t1, t4)
	}
	// Fusing k queries into one width-k pass streams the topology once, so
	// modelled traffic per query never rises with k.
	prev := int64(-1)
	for _, k := range []int{1, 2, 4, 8, 16} {
		perQuery := p.TrafficPerIteration(k, true) / int64(k)
		if prev >= 0 && perQuery > prev {
			t.Fatalf("model traffic per query rose to %d B at k=%d from %d B", perQuery, k, prev)
		}
		prev = perQuery
	}
}

func TestSourceEntryIndexReplaysBlocks(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(9, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g.OutPtr, g.OutIdx, g.NumNodes(), Config{Side: 64, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Validate already replays the index; this test pins the semantics a
	// reader of the fields relies on directly.
	if got, want := len(p.SrcEntryPtr), g.NumNodes()+1; got != want {
		t.Fatalf("len(SrcEntryPtr) = %d, want %d", got, want)
	}
	if p.SrcEntryPtr[len(p.SrcEntryPtr)-1] != p.CompressedEntries {
		t.Fatalf("SrcEntryPtr tail = %d, want CompressedEntries %d",
			p.SrcEntryPtr[len(p.SrcEntryPtr)-1], p.CompressedEntries)
	}
	if p.SrcEntryIdx == nil || p.SrcEntryCol == nil {
		t.Fatal("per-source entry index not built")
	}
	// Every slot listed for source u must be an entry whose sub-block
	// contains u, in the recorded block-column.
	owner := make(map[int64]*SubBlock)
	entrySrc := make(map[int64]graph.Node)
	for _, sb := range p.Blocks {
		for k, s := range sb.Srcs {
			slot := sb.EntryOff + int64(k)
			owner[slot] = sb
			entrySrc[slot] = s
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		for pos := p.SrcEntryPtr[u]; pos < p.SrcEntryPtr[u+1]; pos++ {
			slot := int64(p.SrcEntryIdx[pos])
			sb := owner[slot]
			if sb == nil {
				t.Fatalf("source %d: slot %d owned by no sub-block", u, slot)
			}
			if int(entrySrc[slot]) != u {
				t.Fatalf("source %d: slot %d belongs to source %d", u, slot, entrySrc[slot])
			}
			if int(p.SrcEntryCol[pos]) != sb.BlockCol {
				t.Fatalf("source %d slot %d: column %d, sub-block says %d",
					u, slot, p.SrcEntryCol[pos], sb.BlockCol)
			}
		}
	}
	// Aggregates must tile the partition.
	var re, rw, cw int64
	for i := 0; i < p.B; i++ {
		re += p.RowEntries[i]
		rw += p.RowEdges[i]
		cw += p.ColEdges[i]
	}
	if re != p.CompressedEntries || rw != p.Nnz || cw != p.Nnz {
		t.Fatalf("aggregates: entries %d/%d, row edges %d/%d, col edges %d/%d",
			re, p.CompressedEntries, rw, p.Nnz, cw, p.Nnz)
	}
}

func TestSourceEntryIndexEmptyPartition(t *testing.T) {
	p, err := NewPartition([]int64{0}, nil, 0, Config{Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.SrcEntryPtr) != 1 || p.SrcEntryPtr[0] != 0 {
		t.Fatalf("empty partition SrcEntryPtr = %v, want [0]", p.SrcEntryPtr)
	}
}
