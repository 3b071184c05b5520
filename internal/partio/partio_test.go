package partio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/block"
	"mixen/internal/core"
	"mixen/internal/filter"
	"mixen/internal/graph"
)

// buildCase filters and partitions a deterministic pseudo-random graph.
func buildCase(t testing.TB, n int, m int, seed int64, side int) (*filter.Filtered, *block.Partition, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		// Skewed destinations so the filter sees hubs and sinks.
		dst := graph.Node(rng.Intn(1 + rng.Intn(n)))
		edges = append(edges, graph.Edge{Src: graph.Node(rng.Intn(n)), Dst: dst})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	f := filter.Filter(g)
	p, err := block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, block.Config{Side: side, MaxLoadFactor: 2})
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(g.OutDegree(graph.Node(v)))
	}
	return f, p, deg
}

func writeTemp(t testing.TB, f *filter.Filtered, p *block.Partition, deg []float64, lay Layout) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "case.mixp")
	if err := Write(path, f, p, deg, lay); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return b
}

// sectionOffset returns the payload offset of section id in a .mixp image.
func sectionOffset(t testing.TB, b []byte, id uint32) uint64 {
	t.Helper()
	for i := uint32(0); i < decodeHeader(b).sections; i++ {
		if s := decodeSection(b[headerLen+i*tableEntLen:]); s.id == id {
			return s.offset
		}
	}
	t.Fatalf("section %d not in the table", id)
	return 0
}

func comparePartition(t testing.TB, want, got *block.Partition) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded partition invalid: %v", err)
	}
	if want.R != got.R || want.Side != got.Side || want.B != got.B || want.Nnz != got.Nnz ||
		want.CompressedEntries != got.CompressedEntries || want.Splits != got.Splits {
		t.Fatalf("partition shape mismatch: want {r=%d side=%d b=%d nnz=%d ce=%d splits=%d}, got {r=%d side=%d b=%d nnz=%d ce=%d splits=%d}",
			want.R, want.Side, want.B, want.Nnz, want.CompressedEntries, want.Splits,
			got.R, got.Side, got.B, got.Nnz, got.CompressedEntries, got.Splits)
	}
	if len(want.Blocks) != len(got.Blocks) {
		t.Fatalf("block count mismatch: want %d, got %d", len(want.Blocks), len(got.Blocks))
	}
	for i := range want.Blocks {
		w, g := want.Blocks[i], got.Blocks[i]
		if w.BlockRow != g.BlockRow || w.BlockCol != g.BlockCol || w.SrcLo != g.SrcLo || w.SrcHi != g.SrcHi || w.EntryOff != g.EntryOff {
			t.Fatalf("block %d header mismatch: want %+v, got %+v", i, w, g)
		}
		if !reflect.DeepEqual(w.Srcs, g.Srcs) || !reflect.DeepEqual(w.Dst, g.Dst) {
			t.Fatalf("block %d payload mismatch", i)
		}
	}
	if !reflect.DeepEqual(want.SrcEntryPtr, got.SrcEntryPtr) ||
		!reflect.DeepEqual(want.SrcEntryIdx, got.SrcEntryIdx) ||
		!reflect.DeepEqual(want.SrcEntryCol, got.SrcEntryCol) ||
		!reflect.DeepEqual(want.RowEntries, got.RowEntries) ||
		!reflect.DeepEqual(want.RowEdges, got.RowEdges) ||
		!reflect.DeepEqual(want.ColEdges, got.ColEdges) {
		t.Fatalf("source index / aggregates mismatch")
	}
}

func compareFiltered(t testing.TB, want, got *filter.Filtered) {
	t.Helper()
	if want.NumHub != got.NumHub || want.NumRegular != got.NumRegular || want.NumSeed != got.NumSeed ||
		want.NumSink != got.NumSink || want.NumIsolated != got.NumIsolated {
		t.Fatalf("class counts mismatch")
	}
	if !reflect.DeepEqual(want.NewID, got.NewID) || !reflect.DeepEqual(want.OldID, got.OldID) ||
		!reflect.DeepEqual(want.Class, got.Class) {
		t.Fatalf("relabeling tables mismatch")
	}
	if !reflect.DeepEqual(want.SeedPtr, got.SeedPtr) || !reflect.DeepEqual(want.SeedIdx, got.SeedIdx) ||
		!reflect.DeepEqual(want.SinkPtr, got.SinkPtr) || !reflect.DeepEqual(want.SinkIdx, got.SinkIdx) {
		t.Fatalf("seed/sink structures mismatch")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded filtered form invalid: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		n, m    int
		side    int
		permute bool // original order inside the regular range, not hub-first
	}{
		{name: "skewed", n: 500, m: 4000, side: 64},
		{name: "small_side_splits", n: 300, m: 6000, side: 32},
		{name: "permuted", n: 400, m: 3000, side: 64, permute: true},
		{name: "tiny", n: 5, m: 6, side: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, p, deg := buildCase(t, tc.n, tc.m, 42, tc.side)
			lay := Layout{Epoch: 12345}
			if tc.permute {
				f = filter.FilterWithOptions(f.G, filter.Options{Order: filter.OrderOriginal})
				var e error
				p, e = block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, block.Config{Side: tc.side, MaxLoadFactor: 2})
				if e != nil {
					t.Fatalf("NewPartition: %v", e)
				}
				lay.AutoTuned = true
			}
			path := writeTemp(t, f, p, deg, lay)
			pf, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer pf.Close()
			comparePartition(t, p, pf.P)
			compareFiltered(t, f, pf.F)
			// Same graph, same layout, same epoch: the same bytes, whatever
			// the thread count of the count/fill passes that built it.
			want := readFile(t, path)
			for _, threads := range []int{1, 4} {
				p2, err := block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, block.Config{Side: tc.side, MaxLoadFactor: 2, Threads: threads})
				if err != nil {
					t.Fatalf("NewPartition: %v", err)
				}
				if got := readFile(t, writeTemp(t, f, p2, deg, lay)); !bytes.Equal(want, got) {
					t.Fatalf("a build at Threads=%d writes different bytes (%d vs %d)", threads, len(want), len(got))
				}
			}
			if !reflect.DeepEqual(deg, pf.OutDeg) {
				t.Fatalf("out-degree snapshot mismatch")
			}
			m := pf.Meta
			if m.N != f.N() || m.R != p.R || m.Side != p.Side || m.Epoch != 12345 ||
				m.AutoTuned != lay.AutoTuned {
				t.Fatalf("meta mismatch: %+v", m)
			}
			if m.GraphEdges != f.G.NumEdges() {
				t.Fatalf("meta graph edges %d, want %d", m.GraphEdges, f.G.NumEdges())
			}
		})
	}
}

func TestRoundTripEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	f := filter.Filter(g)
	p, err := block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, block.Config{Side: 16})
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	path := writeTemp(t, f, p, nil, Layout{Epoch: 1})
	pf, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pf.Close()
	if pf.Meta.N != 0 || pf.P.R != 0 || len(pf.P.Blocks) != 0 {
		t.Fatalf("empty graph round trip broken: %+v", pf.Meta)
	}
}

// A mapped form is physically read-only: a stray write into it faults
// instead of silently changing what every process sharing the file serves.
func TestLoadedFormIsFrozen(t *testing.T) {
	f, p, deg := buildCase(t, 200, 1500, 7, 32)
	path := writeTemp(t, f, p, deg, Layout{Epoch: 1})
	pf, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pf.Close()
	if !pf.Mapped() {
		t.Skip("no mmap on this platform: the form is an in-memory copy")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faulted := func() (faulted bool) {
		defer func() { faulted = recover() != nil }()
		pf.F.NewID[0]++
		return false
	}()
	if !faulted {
		t.Fatalf("a write into the mapped form did not fault")
	}
}

// TestLegacyMetaSlotIgnored: files written before the 24-byte META slot was
// reserved may hold a post-filter reorder strategy's name there. The name is
// not read; the permutation it made lives in NEWID/OLDID and the blocks, so
// such a file opens and serves exactly what it served before.
func TestLegacyMetaSlotIgnored(t *testing.T) {
	f, p, deg := buildCase(t, 400, 3000, 5, 64)
	path := writeTemp(t, f, p, deg, Layout{Epoch: 1})
	b := readFile(t, path)
	slot := b[sectionOffset(t, b, secMeta)+16*8:][:24]
	if !bytes.Equal(slot, make([]byte, 24)) {
		t.Fatalf("reserved META slot written as %q, want zeros", slot)
	}
	copy(slot, "hubsort")
	binary.LittleEndian.PutUint64(b[32:], checksum(b[headerLen:]))
	legacy := filepath.Join(t.TempDir(), "legacy.mixp")
	if err := os.WriteFile(legacy, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	pf, err := Open(legacy)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pf.Close()
	comparePartition(t, p, pf.P)
	compareFiltered(t, f, pf.F)

	run := func(f *filter.Filtered, p *block.Partition) []float64 {
		e, err := core.NewFromPrebuilt(f, p, core.Config{Threads: 2})
		if err != nil {
			t.Fatalf("NewFromPrebuilt: %v", err)
		}
		res, err := e.Run(algo.NewPageRankShared(f.N(), deg, 0.85, 0, 20))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Values
	}
	want, got := run(f, p), run(pf.F, pf.P)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("node %d: legacy file serves %v, original %v", i, got[i], want[i])
		}
	}
}

// TestCorruption walks the header/checksum failure table: every tampered
// file must be rejected with a diagnostic mentioning the actual problem,
// never a panic or a silently wrong partition.
func TestCorruption(t *testing.T) {
	f, p, deg := buildCase(t, 300, 2500, 11, 32)
	path := writeTemp(t, f, p, deg, Layout{Epoch: 1})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		opts    []Options
		wantErr string
	}{
		{
			name:    "truncated_below_header",
			mutate:  func(b []byte) []byte { return b[:10] },
			wantErr: "truncated",
		},
		{
			name:    "truncated_mid_payload",
			mutate:  func(b []byte) []byte { return b[:len(b)-100] },
			wantErr: "header says",
		},
		{
			name: "trailing_garbage",
			mutate: func(b []byte) []byte {
				return append(append([]byte{}, b...), 0xde, 0xad)
			},
			wantErr: "header says",
		},
		{
			name: "bad_magic",
			mutate: func(b []byte) []byte {
				b[0] = 'X'
				return b
			},
			wantErr: "bad magic",
		},
		{
			name: "version_skew",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:], Version+1)
				return b
			},
			wantErr: "version",
		},
		{
			// A version-1 file (separate destination ids and offsets) is
			// refused, with the way out in the message.
			name: "version_1_file",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:], 1)
				return b
			},
			wantErr: "mixenconvert -partition",
		},
		{
			// The first edge of the first block loses its run-start flag;
			// with the checksum skipped the assembly check must catch it.
			name: "cleared_run_start",
			mutate: func(b []byte) []byte {
				b[sectionOffset(t, b, secDst)+3] &^= 0x80
				return b
			},
			opts:    []Options{{SkipChecksum: true}},
			wantErr: "run start",
		},
		{
			name: "bad_arch_word",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[8:], 99)
				return b
			},
			wantErr: "architecture",
		},
		{
			name: "flipped_payload_byte",
			mutate: func(b []byte) []byte {
				b[len(b)-5] ^= 0x40
				return b
			},
			wantErr: "checksum mismatch",
		},
		{
			name: "flipped_table_byte",
			mutate: func(b []byte) []byte {
				b[headerLen+3] ^= 0x01
				return b
			},
			wantErr: "checksum mismatch",
		},
		{
			name: "section_offset_out_of_range",
			mutate: func(b []byte) []byte {
				// Aim the second section's offset past EOF; skip the
				// checksum so the bounds check itself must catch it.
				binary.LittleEndian.PutUint64(b[headerLen+tableEntLen+8:], uint64(len(b))+sectionAlign)
				return b
			},
			opts:    []Options{{SkipChecksum: true}},
			wantErr: "exceeds file size",
		},
		{
			name: "section_count_mismatch",
			mutate: func(b []byte) []byte {
				// Claim the NEWID section holds one fewer element.
				off := headerLen + tableEntLen // second table entry (NEWID)
				cnt := binary.LittleEndian.Uint64(b[off+24:])
				binary.LittleEndian.PutUint64(b[off+24:], cnt-1)
				return b
			},
			opts:    []Options{{SkipChecksum: true}},
			wantErr: "elements",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte{}, orig...))
			mp := filepath.Join(t.TempDir(), "corrupt.mixp")
			if err := os.WriteFile(mp, mutated, 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			_, err := Open(mp, tc.opts...)
			if err == nil {
				t.Fatalf("Open accepted a corrupted file")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The pristine file still opens after all that.
	pf, err := Open(path)
	if err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	pf.Close()
}

func TestWriteRejectsBadInput(t *testing.T) {
	f, p, deg := buildCase(t, 100, 500, 3, 32)
	dir := t.TempDir()
	if err := Write(filepath.Join(dir, "x.mixp"), nil, p, deg, Layout{}); err == nil {
		t.Fatalf("nil filtered form accepted")
	}
	if err := Write(filepath.Join(dir, "x.mixp"), f, p, deg[:10], Layout{}); err == nil {
		t.Fatalf("short out-degree snapshot accepted")
	}
	// A failed write must not leave the temp file behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed writes left files behind: %v", ents)
	}
}

// FuzzPartitionRoundTrip derives a small graph from the fuzz input, writes
// it and reads it back: the reopened partition and filtered form must pass
// full validation and match the originals structurally.
func FuzzPartitionRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0, 0, 1, 2, 200, 17})
	f.Add([]byte{40, 5, 1, 2, 1, 3, 1, 4, 2, 1, 3, 1, 4, 1, 1, 5, 5, 1}) // compression off
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		var edges []graph.Edge
		for i := 1; i+1 < len(data) && len(edges) < 512; i += 2 {
			edges = append(edges, graph.Edge{
				Src: graph.Node(int(data[i]) % n),
				Dst: graph.Node(int(data[i+1]) % n),
			})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return
		}
		fd := filter.Filter(g)
		// The second byte picks the shape of the flagged destination
		// stream: load-balance splitting on/off, compression on/off.
		bcfg := block.Config{Side: 1 + int(data[0])%16, MaxLoadFactor: 2}
		if len(data) > 1 {
			bcfg.MaxLoadFactor = float64(data[1] & 3)
			bcfg.DisableCompression = data[1]&4 != 0
		}
		p, err := block.NewPartition(fd.RegPtr, fd.RegIdx, fd.NumRegular, bcfg)
		if err != nil {
			t.Fatalf("NewPartition: %v", err)
		}
		deg := make([]float64, n)
		for v := 0; v < n; v++ {
			deg[v] = float64(g.OutDegree(graph.Node(v)))
		}
		path := filepath.Join(t.TempDir(), "fuzz.mixp")
		if err := Write(path, fd, p, deg, Layout{Epoch: 1}); err != nil {
			t.Fatalf("Write: %v", err)
		}
		pf, err := Open(path)
		if err != nil {
			t.Fatalf("Open rejected its own writer's output: %v", err)
		}
		defer pf.Close()
		comparePartition(t, p, pf.P)
		compareFiltered(t, fd, pf.F)
	})
}

// TestMangledRunFlagRefused: a .mixp whose destination stream has one
// run-start flag too few or too many inside a block still opens when the
// checksum is skipped (assembly checks only each block's first flag), but
// the first push-capable run refuses the partition with an error instead
// of pushing along runs that cross into a neighbour, and a checksummed
// open refuses the file outright.
func TestMangledRunFlagRefused(t *testing.T) {
	f, p, deg := buildCase(t, 400, 4000, 5, 32)
	path := writeTemp(t, f, p, deg, Layout{Epoch: 1})
	orig := readFile(t, path)
	// Find a run start that is not its block's first edge, and a
	// continuation edge.
	start, cont := -1, -1
	var base int
	for _, sb := range p.Blocks {
		for k, d := range sb.Dst {
			switch {
			case k > 0 && d&block.RunStart != 0 && start < 0:
				start = base + k
			case d&block.RunStart == 0 && cont < 0:
				cont = base + k
			}
		}
		base += len(sb.Dst)
	}
	if start < 0 || cont < 0 {
		t.Fatal("fixture has no inner run start or no continuation edge")
	}
	for name, at := range map[string]int{"cleared": start, "added": cont} {
		t.Run(name, func(t *testing.T) {
			b := append([]byte{}, orig...)
			b[sectionOffset(t, b, secDst)+uint64(4*at)+3] ^= 0x80
			mp := filepath.Join(t.TempDir(), "mangled.mixp")
			if err := os.WriteFile(mp, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(mp); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("checksummed open: %v, want a checksum mismatch", err)
			}
			mf, err := Open(mp, Options{SkipChecksum: true})
			if err != nil {
				t.Fatalf("open without checksum: %v", err)
			}
			defer mf.Close()
			e, err := core.NewFromPrebuilt(mf.F, mf.P, core.Config{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Run(algo.NewBFSN(mf.F.N(), 0))
			if err == nil || !strings.Contains(err.Error(), "runs") {
				t.Fatalf("BFS on a mangled stream: %v, want a run-count error", err)
			}
		})
	}
}
