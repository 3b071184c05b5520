package mixen

import (
	"path/filepath"
	"sync"
	"testing"
)

func sweepGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateSkewed(SkewedConfig{
		N: 2000, M: 16000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func writeSweepPartition(t testing.TB, g *Graph) string {
	t.Helper()
	eng, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.mixp")
	if err := WritePartition(path, eng); err != nil {
		t.Fatalf("WritePartition: %v", err)
	}
	return path
}

// sweepPrograms builds one independent instance of each program in the
// sweep (programs carry per-run state, so engines must not share them).
// The sweep covers every algorithm family x widths 1 and 4 (via the fused
// batch path).
func sweepPrograms(t testing.TB, g *Graph, n int, deg []float64) map[string]Program {
	t.Helper()
	batch := func(progs ...Program) Program {
		bp, err := NewBatchProgram(n, progs...)
		if err != nil {
			t.Fatalf("NewBatchProgram: %v", err)
		}
		return bp
	}
	progs := map[string]Program{
		"pagerank_w1": NewPageRankProgramShared(n, deg, 0.85, 0, 20),
		"ppr_w1":      NewPersonalizedPageRankProgramShared(n, deg, 3, 0.85, 0, 15),
		"indegree_w1": NewInDegreeProgram(2),
		"pagerank_w4": batch(
			NewPageRankProgramShared(n, deg, 0.85, 0, 20),
			NewPageRankProgramShared(n, deg, 0.9, 0, 20),
			NewPageRankProgramShared(n, deg, 0.8, 0, 20),
			NewPageRankProgramShared(n, deg, 0.85, 1e-12, 20),
		),
		"ppr_w4": batch(
			NewPersonalizedPageRankProgramShared(n, deg, 1, 0.85, 0, 15),
			NewPersonalizedPageRankProgramShared(n, deg, 2, 0.85, 0, 15),
			NewPersonalizedPageRankProgramShared(n, deg, 5, 0.85, 0, 15),
			NewPersonalizedPageRankProgramShared(n, deg, 8, 0.85, 0, 15),
		),
	}
	if g != nil {
		progs["bfs_w1"] = NewBFSProgram(g, 5)
	} else {
		progs["bfs_w1"] = NewBFSProgramForN(n, 5)
	}
	return progs
}

func compareValues(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: diverges at %d: built=%v mapped=%v", label, i, want[i], got[i])
		}
	}
}

// TestMappedBitIdentitySweep is the tentpole's correctness gate: an engine
// assembled from a mapped .mixp file must produce bit-identical results to
// engines built from edges, across algorithms x widths x dense/sparse
// execution.
func TestMappedBitIdentitySweep(t *testing.T) {
	g := sweepGraph(t)
	path := writeSweepPartition(t, g)
	n := g.NumNodes()
	deg := OutDegrees(g)

	execModes := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"dense_only", Config{DisableSparse: true}},
		{"sparse_eager", Config{SparseDensity: 0.9}},
	}
	for _, mode := range execModes {
		t.Run(mode.name, func(t *testing.T) {
			me, err := OpenPartition(path, mode.cfg)
			if err != nil {
				t.Fatalf("OpenPartition: %v", err)
			}
			defer me.Close()
			ref, err := New(g, mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name := range sweepPrograms(t, g, n, deg) {
				refRes, err := ref.Run(sweepPrograms(t, g, n, deg)[name])
				if err != nil {
					t.Fatalf("%s: reference run: %v", name, err)
				}
				mapRes, err := me.Run(sweepPrograms(t, nil, n, me.OutDegrees())[name])
				if err != nil {
					t.Fatalf("%s: mapped run: %v", name, err)
				}
				compareValues(t, name, refRes.Values, mapRes.Values)
				if refRes.Iterations != mapRes.Iterations || refRes.Delta != mapRes.Delta {
					t.Fatalf("%s: iterations/delta (%d, %v) vs (%d, %v)",
						name, refRes.Iterations, refRes.Delta, mapRes.Iterations, mapRes.Delta)
				}
			}
		})
	}
}

// TestConcurrentOpenPartition: two independent OpenPartition callers on
// the same file (as two processes sharing the page cache would) serve
// bit-identical results concurrently. Run under -race in CI.
func TestConcurrentOpenPartition(t *testing.T) {
	g := sweepGraph(t)
	path := writeSweepPartition(t, g)
	n := g.NumNodes()

	const callers = 2
	const runsEach = 4
	results := make([][]float64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			me, err := OpenPartition(path, Config{})
			if err != nil {
				t.Errorf("caller %d: OpenPartition: %v", c, err)
				return
			}
			defer me.Close()
			for r := 0; r < runsEach; r++ {
				res, err := me.Run(NewPageRankProgramShared(n, me.OutDegrees(), 0.85, 0, 20))
				if err != nil {
					t.Errorf("caller %d run %d: %v", c, r, err)
					return
				}
				if results[c] == nil {
					results[c] = res.Values
				} else {
					for i := range res.Values {
						if res.Values[i] != results[c][i] {
							t.Errorf("caller %d: run %d not reproducible at %d", c, r, i)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	compareValues(t, "cross-caller", results[0], results[1])
}
