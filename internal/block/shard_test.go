package block

import (
	"testing"

	"mixen/internal/filter"
	"mixen/internal/gen"
	"mixen/internal/graph"
)

func TestPlanShards(t *testing.T) {
	cases := []struct {
		name    string
		weights []int64
		s       int
		want    int // expected group count
	}{
		{"even", []int64{10, 10, 10, 10}, 2, 2},
		{"clampToBlocks", []int64{5, 5}, 8, 2},
		{"single", []int64{1, 2, 3}, 1, 1},
		{"zeroWeights", []int64{0, 0, 0, 0}, 3, 3},
		{"skewFront", []int64{100, 1, 1, 1, 1, 1}, 3, 3},
		{"empty", nil, 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := PlanShards(tc.weights, tc.s)
			if got := len(b) - 1; got != tc.want {
				t.Fatalf("groups = %d, want %d (bounds %v)", got, tc.want, b)
			}
			if b[0] != 0 || b[len(b)-1] != len(tc.weights) {
				t.Fatalf("bounds %v do not cover [0,%d]", b, len(tc.weights))
			}
			for i := 1; i < len(b); i++ {
				if len(tc.weights) > 0 && b[i] <= b[i-1] {
					t.Fatalf("empty group in bounds %v", b)
				}
			}
		})
	}
}

func TestPlanShardsBalance(t *testing.T) {
	// 8 equal blocks into 4 shards must split exactly evenly.
	b := PlanShards([]int64{7, 7, 7, 7, 7, 7, 7, 7}, 4)
	want := []int{0, 2, 4, 6, 8}
	if len(b) != len(want) {
		t.Fatalf("bounds %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds %v, want %v", b, want)
		}
	}
}

func shardingFixture(t testing.TB, shards int, cfg Config) (*Sharding, *Partition, []int64, []graph.Node) {
	t.Helper()
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 3000, M: 24000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.25, ZipfV: 1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := filter.Filter(g)
	sh, err := NewSharding(f.RegPtr, f.RegIdx, f.NumRegular, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sh, p, f.RegPtr, f.RegIdx
}

func TestShardingValidate(t *testing.T) {
	for _, s := range []int{1, 2, 3, 4, 7} {
		sh, p, _, _ := shardingFixture(t, s, Config{Side: 128, MaxLoadFactor: 2})
		if err := sh.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if sh.Side != p.Side || sh.B != p.B || sh.R != p.R {
			t.Fatalf("shards=%d: grid (%d,%d,%d) != single grid (%d,%d,%d)",
				s, sh.R, sh.Side, sh.B, p.R, p.Side, p.B)
		}
		// The combined execution partition must agree with the
		// single-partition build on every engine-visible aggregate.
		if sh.Exec.Nnz != p.Nnz {
			t.Fatalf("shards=%d: exec nnz %d != %d", s, sh.Exec.Nnz, p.Nnz)
		}
		if sh.Exec.CompressedEntries != p.CompressedEntries {
			t.Fatalf("shards=%d: exec entries %d != %d", s, sh.Exec.CompressedEntries, p.CompressedEntries)
		}
		for i := 0; i < p.B; i++ {
			if sh.Exec.RowEntries[i] != p.RowEntries[i] {
				t.Fatalf("shards=%d: row %d entries %d != %d", s, i, sh.Exec.RowEntries[i], p.RowEntries[i])
			}
			if sh.Exec.RowEdges[i] != p.RowEdges[i] {
				t.Fatalf("shards=%d: row %d edges %d != %d", s, i, sh.Exec.RowEdges[i], p.RowEdges[i])
			}
			if sh.Exec.ColEdges[i] != p.ColEdges[i] {
				t.Fatalf("shards=%d: col %d edges %d != %d", s, i, sh.Exec.ColEdges[i], p.ColEdges[i])
			}
		}
		for u := 0; u <= p.R; u++ {
			if sh.Exec.SrcEntryPtr[u] != p.SrcEntryPtr[u] {
				t.Fatalf("shards=%d: SrcEntryPtr[%d] %d != %d", s, u, sh.Exec.SrcEntryPtr[u], p.SrcEntryPtr[u])
			}
		}
		if s == 1 && sh.CutEdges != 0 {
			t.Fatalf("single shard has %d cut edges", sh.CutEdges)
		}
		if s > 1 && sh.CutEdges == 0 {
			t.Fatalf("shards=%d: no cut edges on a dense random graph", s)
		}
	}
}

// foldSources replays every bin entry of column j in fold order and appends,
// per destination, the sequence of source ids folded into it. This is the
// exact order Gather combines contributions, so equality with the
// single-partition replay is the structural bit-identity guarantee.
func foldSources(p *Partition, j int, dst map[graph.Node][]graph.Node) {
	for _, sb := range p.Cols[j] {
		k := -1
		for _, d := range sb.Dst {
			k += int(d >> 31)
			dst[d&DstMask] = append(dst[d&DstMask], sb.Srcs[k])
		}
	}
}

func TestShardingFoldOrderMatchesSinglePartition(t *testing.T) {
	for _, s := range []int{1, 2, 4} {
		for _, cfg := range []Config{
			{Side: 128, MaxLoadFactor: 2},
			{Side: 128, MaxLoadFactor: 2, DisableCompression: true},
			{Side: 256},
		} {
			sh, p, _, _ := shardingFixture(t, s, cfg)
			for j := 0; j < p.B; j++ {
				single := make(map[graph.Node][]graph.Node)
				sharded := make(map[graph.Node][]graph.Node)
				foldSources(p, j, single)
				foldSources(sh.Exec, j, sharded)
				if len(single) != len(sharded) {
					t.Fatalf("shards=%d col %d: %d vs %d destinations", s, j, len(single), len(sharded))
				}
				for d, seq := range single {
					got := sharded[d]
					if len(got) != len(seq) {
						t.Fatalf("shards=%d col %d dst %d: fold length %d != %d", s, j, d, len(got), len(seq))
					}
					for k := range seq {
						if got[k] != seq[k] {
							t.Fatalf("shards=%d col %d dst %d: fold[%d] = %d, want %d (order diverged)",
								s, j, d, k, got[k], seq[k])
						}
					}
				}
			}
		}
	}
}

func TestShardingOutboxLayout(t *testing.T) {
	sh, _, _, _ := shardingFixture(t, 3, Config{Side: 128, MaxLoadFactor: 2})
	// Each s→t outbox must be one contiguous entry segment at OutboxOff.
	for s := 0; s < sh.S; s++ {
		for u := 0; u < sh.S; u++ {
			if s == u {
				continue
			}
			next := sh.OutboxOff[s][u]
			var seen int64
			for _, sb := range sh.Cut {
				if int(sh.BlockShard[sb.BlockRow]) != s || int(sh.BlockShard[sb.BlockCol]) != u {
					continue
				}
				if sb.EntryOff != next {
					t.Fatalf("outbox %d→%d: block (%d,%d) at entry %d, want %d",
						s, u, sb.BlockRow, sb.BlockCol, sb.EntryOff, next)
				}
				next += int64(len(sb.Srcs))
				seen += int64(len(sb.Srcs))
			}
			if seen != sh.OutboxEntries[s][u] {
				t.Fatalf("outbox %d→%d: %d entries seen, aggregate says %d", s, u, seen, sh.OutboxEntries[s][u])
			}
		}
	}
	// Shard-local segments cover [0, CutEntryOff) without gaps.
	if sh.LocalEntryOff[0] != 0 || sh.LocalEntryOff[sh.S] != sh.CutEntryOff {
		t.Fatalf("local segments %v do not cover [0, %d)", sh.LocalEntryOff, sh.CutEntryOff)
	}
}

func TestShardingIDMapping(t *testing.T) {
	sh, _, _, _ := shardingFixture(t, 4, Config{Side: 128})
	for u := 0; u < sh.R; u++ {
		s, local := sh.LocalID(u)
		if u < sh.Lo[s] || u >= sh.Lo[s+1] {
			t.Fatalf("node %d mapped to shard %d owning [%d,%d)", u, s, sh.Lo[s], sh.Lo[s+1])
		}
		if local != u-sh.Lo[s] {
			t.Fatalf("node %d local id %d, want %d", u, local, u-sh.Lo[s])
		}
		if got := int(sh.BlockShard[u/sh.Side]); got != s {
			t.Fatalf("node %d: BlockShard says %d, ShardOf says %d", u, got, s)
		}
	}
}

func TestShardingDegenerate(t *testing.T) {
	// Empty submatrix.
	sh, err := NewSharding([]int64{0}, nil, 0, 4, Config{Side: 64})
	if err != nil {
		t.Fatal(err)
	}
	if sh.S != 1 || sh.R != 0 {
		t.Fatalf("empty sharding: S=%d R=%d", sh.S, sh.R)
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fewer blocks than requested shards.
	ptr, idx := makeCSR(t, 6, []graph.Edge{{Src: 0, Dst: 5}, {Src: 5, Dst: 0}, {Src: 2, Dst: 3}})
	sh2, err := NewSharding(ptr, idx, 6, 16, Config{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sh2.S != 3 {
		t.Fatalf("S = %d, want 3 (clamped to block count)", sh2.S)
	}
	if err := sh2.Validate(); err != nil {
		t.Fatal(err)
	}
	if sh2.CutEdges != 2 {
		t.Fatalf("cut edges = %d, want 2 (0→5 and 5→0)", sh2.CutEdges)
	}
}
