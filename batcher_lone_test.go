package mixen

import (
	"math"
	"testing"
	"time"
)

// TestBatcherLoneQueryIsEngineRun: a lone query through the Batcher is not
// wrapped in a batch of one — it is the member's own program run as
// Engine.Run runs it, so Values, Iterations and Delta all agree bit for
// bit, with the same query fused alone (NewBatchProgram of one, the path it
// no longer takes) as the third witness. PPR to a tolerance and BFS, on a
// built engine and on one mapped from a .mixp file.
func TestBatcherLoneQueryIsEngineRun(t *testing.T) {
	g := sweepGraph(t)
	built, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	me, err := OpenPartition(writeSweepPartition(t, g), Config{})
	if err != nil {
		t.Fatalf("OpenPartition: %v", err)
	}
	defer me.Close()

	n, deg := g.NumNodes(), OutDegrees(g)
	progs := map[string]func() Program{
		"ppr": func() Program { return NewPersonalizedPageRankProgramShared(n, deg, 3, 0.85, 1e-9, 100) },
		"bfs": func() Program { return NewBFSProgramForN(n, 3) },
	}
	same := func(a, b *Result) bool {
		if a.Iterations != b.Iterations || math.Float64bits(a.Delta) != math.Float64bits(b.Delta) || len(a.Values) != len(b.Values) {
			return false
		}
		for i := range a.Values {
			if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
				return false
			}
		}
		return true
	}
	for engName, eng := range map[string]*MixenEngine{"built": built, "mapped": me.MixenEngine} {
		bat := NewBatcher(eng, BatcherConfig{MaxBatch: 8, MaxWait: time.Hour})
		defer bat.Close()
		for name, prog := range progs {
			want, err := eng.Run(prog())
			if err != nil {
				t.Fatal(err)
			}
			fut, err := bat.Submit(prog())
			if err != nil {
				t.Fatal(err)
			}
			got, err := fut.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if fut.BatchSize() != 1 {
				t.Errorf("%s/%s: batch size %d, want 1", engName, name, fut.BatchSize())
			}
			if !same(got, want) {
				t.Errorf("%s/%s: lone query through the Batcher differs from Engine.Run (iterations %d vs %d, delta %g vs %g)",
					engName, name, got.Iterations, want.Iterations, got.Delta, want.Delta)
			}

			bp, err := NewBatchProgram(n, prog())
			if err != nil {
				t.Fatal(err)
			}
			wide, err := eng.Run(bp)
			if err != nil {
				t.Fatal(err)
			}
			split, err := bp.Split(wide)
			if err != nil {
				t.Fatal(err)
			}
			if !same(split[0], want) {
				t.Errorf("%s/%s: a batch of one differs from Engine.Run (iterations %d vs %d, delta %g vs %g)",
					engName, name, split[0].Iterations, want.Iterations, split[0].Delta, want.Delta)
			}
		}
	}
}
