package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// frontierGraph builds a random skewed graph from a seed, the shared input
// of the sparse-vs-dense equivalence tests.
func frontierGraph(t testing.TB, n int, m int64, zipfS float64, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Skewed(gen.SkewedConfig{
		N: n, M: m,
		RegularFrac: 0.5, SeedFrac: 0.25, SinkFrac: 0.15,
		ZipfS: zipfS, ZipfV: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runBoth runs prog-producing thunks on a sparse-enabled and an
// always-dense engine with otherwise identical configuration and requires
// bit-identical values. newProg is called once per engine so stateful
// programs (BFS, Batch) start fresh.
func runBoth(t *testing.T, g *graph.Graph, cfg Config, name string, newProg func() vprog.Program) {
	t.Helper()
	dense := cfg
	dense.DisableSparse = true
	eS, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eD, err := New(g, dense)
	if err != nil {
		t.Fatal(err)
	}
	resS, statsS, err := eS.RunWithStats(newProg())
	if err != nil {
		t.Fatalf("%s sparse: %v", name, err)
	}
	resD, statsD, err := eD.RunWithStats(newProg())
	if err != nil {
		t.Fatalf("%s dense: %v", name, err)
	}
	if resS.Iterations != resD.Iterations || resS.Delta != resD.Delta {
		t.Errorf("%s: convergence differs: sparse (%d, %g) dense (%d, %g)",
			name, resS.Iterations, resS.Delta, resD.Iterations, resD.Delta)
	}
	if !sameValues(resS.Values, resD.Values) {
		t.Errorf("%s: sparse values differ from dense", name)
	}
	if statsS.ScatterEntries > statsD.ScatterEntries {
		t.Errorf("%s: sparse scattered %d entries, dense only %d",
			name, statsS.ScatterEntries, statsD.ScatterEntries)
	}
	if statsS.GatherEdges > statsD.GatherEdges {
		t.Errorf("%s: sparse gathered %d edges, dense only %d",
			name, statsS.GatherEdges, statsD.GatherEdges)
	}
}

// TestSparseMatchesDenseAllAlgorithms is the randomized equivalence sweep
// of the tentpole's bit-identity requirement: random skewed graphs, random
// Side / thread count / tolerance, every algorithm family, sparse vs
// always-dense — results (values, iteration count, final delta) must match
// bit for bit, including the Pre/Post phases the regular submatrix does
// not cover.
func TestSparseMatchesDenseAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	sides := []int{64, 128, 256, 512}
	for trial := 0; trial < 4; trial++ {
		n := 1000 + rng.Intn(3000)
		m := int64(n * (4 + rng.Intn(8)))
		cfg := Config{
			Side:    sides[rng.Intn(len(sides))],
			Threads: 1 + rng.Intn(4),
			// Random threshold, including one forced-sparse extreme: with
			// SparseDensity near 1 every non-quiescent row goes sparse
			// after the first iteration, stressing the sparse body far
			// beyond the tuned default.
			SparseDensity: []float64{0, 0.2, 0.99}[trial%3],
		}
		g := frontierGraph(t, n, m, 1.1+rng.Float64(), rng.Int63())
		tol := []float64{0, 1e-8, 1e-4}[rng.Intn(3)]
		name := fmt.Sprintf("trial%d(side=%d,thr=%d,sd=%g,tol=%g)",
			trial, cfg.Side, cfg.Threads, cfg.SparseDensity, tol)
		runBoth(t, g, cfg, name+"/pagerank", func() vprog.Program {
			return algo.NewPageRank(g, 0.85, tol, 120)
		})
		runBoth(t, g, cfg, name+"/indegree", func() vprog.Program {
			return algo.NewInDegree(6)
		})
		bfsSrc := uint32(rng.Intn(n))
		runBoth(t, g, cfg, name+"/bfs", func() vprog.Program {
			return algo.NewBFS(g, bfsSrc)
		})
		runBoth(t, g, cfg, name+"/cc", func() vprog.Program {
			return algo.NewCC(g)
		})
		runBoth(t, g, cfg, name+"/cf", func() vprog.Program {
			return algo.NewCF(g, 4, 5)
		})
	}
}

// TestSparseMatchesDenseBatched covers width>1 fused execution: a width-K
// personalized-PageRank batch (per-lane tolerance freezing) must be
// bit-identical between the sparse and always-dense engines, lane by lane.
func TestSparseMatchesDenseBatched(t *testing.T) {
	g := frontierGraph(t, 2500, 20000, 1.3, 777)
	sources := []uint32{3, 99, 512, 1044}
	for _, sd := range []float64{0, 0.99} {
		cfgS := Config{Side: 128, Threads: 3, SparseDensity: sd}
		cfgD := cfgS
		cfgD.DisableSparse = true
		eS, err := New(g, cfgS)
		if err != nil {
			t.Fatal(err)
		}
		eD, err := New(g, cfgD)
		if err != nil {
			t.Fatal(err)
		}
		resS, err := algo.PersonalizedPageRankBatch(eS, g, sources, 0.85, 1e-7, 100)
		if err != nil {
			t.Fatal(err)
		}
		resD, err := algo.PersonalizedPageRankBatch(eD, g, sources, 0.85, 1e-7, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sources {
			if !sameValues(resS[i].Values, resD[i].Values) {
				t.Errorf("sd=%g lane %d: batched sparse values differ from dense", sd, i)
			}
			if resS[i].Iterations != resD[i].Iterations {
				t.Errorf("sd=%g lane %d: iterations %d vs %d", sd, i, resS[i].Iterations, resD[i].Iterations)
			}
		}
	}
}

// FuzzSparseDense fuzzes the equivalence over graph shape and engine
// configuration, for PageRank and for BFS and CC, which gather by push on
// the sparse engine (sides are multiples of 16, so a column's push bitmap
// can end mid-word). The corpus pins the regimes that matter (tiny sides,
// forced sparse, single-threaded, high skew); the fuzzer then mutates
// freely.
func FuzzSparseDense(f *testing.F) {
	f.Add(int64(1), uint16(900), uint8(4), uint8(64), uint8(2), false, uint8(1))
	f.Add(int64(42), uint16(2000), uint8(8), uint8(16), uint8(1), true, uint8(0))
	f.Add(int64(7), uint16(300), uint8(12), uint8(255), uint8(4), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, degree, side8, threads uint8, forceSparse bool, tolSel uint8) {
		n := 200 + int(n16)%4000
		m := int64(n) * (1 + int64(degree)%12)
		side := 16 * (1 + int(side8)%32)
		g, err := gen.Skewed(gen.SkewedConfig{
			N: n, M: m,
			RegularFrac: 0.5, SeedFrac: 0.25, SinkFrac: 0.15,
			ZipfS: 1.2, ZipfV: 1, Seed: seed,
		})
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		cfg := Config{Side: side, Threads: 1 + int(threads)%4}
		if forceSparse {
			cfg.SparseDensity = 0.99
		}
		tol := []float64{0, 1e-8, 1e-4, 1e-2}[tolSel%4]
		runBoth(t, g, cfg, "fuzz/pagerank", func() vprog.Program {
			return algo.NewPageRank(g, 0.85, tol, 60)
		})
		bfsSrc := uint32((int(seed)%n + n) % n)
		runBoth(t, g, cfg, "fuzz/bfs", func() vprog.Program {
			return algo.NewBFS(g, bfsSrc)
		})
		runBoth(t, g, cfg, "fuzz/cc", func() vprog.Program {
			return algo.NewCC(g)
		})
		// Traced runs take the same iteration path, push included: the
		// traced sparse engine must match the untraced one bit for bit.
		traced := cfg
		traced.Trace = true
		runBoth(t, g, traced, "fuzz/bfs-traced", func() vprog.Program {
			return algo.NewBFS(g, bfsSrc)
		})
		eU, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eT, err := New(g, traced)
		if err != nil {
			t.Fatal(err)
		}
		for _, prog := range []func() vprog.Program{
			func() vprog.Program { return algo.NewBFS(g, bfsSrc) },
			func() vprog.Program { return algo.NewCC(g) },
		} {
			want, err := eU.Run(prog())
			if err != nil {
				t.Fatal(err)
			}
			got, err := eT.Run(prog())
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "fuzz/traced-vs-untraced", got, want)
		}
	})
}

// TestFrontierHysteresis white-boxes planIteration's mode decisions: a row
// crosses into sparse only below the enter threshold, exits only above 2×,
// and holds its previous mode in between (the hysteresis band). Quiet
// rows keep their sticky state.
func TestFrontierHysteresis(t *testing.T) {
	g := frontierGraph(t, 2000, 16000, 1.3, 5)
	e, err := New(g, Config{Side: 128, SparseDensity: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if e.P.SrcEntryIdx == nil {
		t.Fatal("source entry index not built")
	}
	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	rc := &ws.rc
	rc.track, rc.canSparse, rc.first = true, true, false
	rc.threads = 1
	rc.sparseEnter, rc.sparseExit = 0.1, 0.2

	// Pick a block-row with entries and build a worklist of its first
	// sources covering a chosen fraction of the row's entries.
	row := -1
	for i := 0; i < e.P.B; i++ {
		if e.P.RowEntries[i] >= 20 {
			row = i
			break
		}
	}
	if row < 0 {
		t.Skip("no block-row with enough entries")
	}
	setFrontier := func(density float64) {
		for i := range rc.workLen {
			rc.workLen[i] = 0
			rc.workEnt[i] = 0
		}
		target := int64(density * float64(e.P.RowEntries[row]))
		sep := e.P.SrcEntryPtr
		cnt := 0
		var ent int64
		for v := row * e.P.Side; v < (row+1)*e.P.Side && v < e.F.NumRegular; v++ {
			if ent >= target {
				break
			}
			rc.work[row*e.P.Side+cnt] = int32(v)
			cnt++
			ent += sep[v+1] - sep[v]
		}
		if cnt == 0 { // ensure a non-empty frontier even for tiny targets
			rc.work[row*e.P.Side] = int32(row * e.P.Side)
			cnt = 1
			ent = sep[row*e.P.Side+1] - sep[row*e.P.Side]
		}
		rc.workLen[row] = int32(cnt)
		rc.workEnt[row] = ent
	}

	steps := []struct {
		density float64
		want    uint8
	}{
		{0.5, modeDense},  // far above enter: stays dense
		{0.15, modeDense}, // inside the band: holds dense
		{0.03, modeSparse},
		{0.15, modeSparse}, // inside the band: holds sparse
		{0.5, modeDense},   // above exit: back to dense
	}
	for si, s := range steps {
		setFrontier(s.density)
		rc.planIteration()
		if got := rc.rowMode[row]; got != s.want {
			t.Fatalf("step %d (density %.2f): rowMode = %d, want %d", si, s.density, got, s.want)
		}
	}

	// A quiescent interlude must not reset the sticky state.
	setFrontier(0.03)
	rc.planIteration()
	if rc.rowMode[row] != modeSparse {
		t.Fatal("setup: row should be sparse")
	}
	for i := range rc.workLen {
		rc.workLen[i] = 0
		rc.workEnt[i] = 0
	}
	rc.planIteration()
	if rc.rowMode[row] != modeEmpty {
		t.Fatal("empty frontier should skip the row")
	}
	setFrontier(0.15) // inside the band: resumes in the remembered mode
	rc.planIteration()
	if rc.rowMode[row] != modeSparse {
		t.Fatal("sticky state lost across a quiescent iteration")
	}
}

// TestSkippedBlocksSubBlockGranularity is the regression test for the
// SkippedBlocks unit: it is sub-blocks in every path. On a bidirected
// chain every block-row spans 2–3 sub-blocks, so a row-granularity count
// would be strictly smaller than the sub-block count the trace and stats
// must agree on.
func TestSkippedBlocksSubBlockGranularity(t *testing.T) {
	const n = 4096
	edges := make([]graph.Edge, 0, 2*(n-1))
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node(i + 1)})
		edges = append(edges, graph.Edge{Src: graph.Node(i + 1), Dst: graph.Node(i)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() vprog.Program { return algo.NewBFS(g, 0) }

	eT, err := New(g, Config{Side: 256, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	_, statsT, err := eT.RunWithStats(prog())
	if err != nil {
		t.Fatal(err)
	}
	eU, err := New(g, Config{Side: 256})
	if err != nil {
		t.Fatal(err)
	}
	_, statsU, err := eU.RunWithStats(prog())
	if err != nil {
		t.Fatal(err)
	}

	if statsT.SkippedBlocks == 0 {
		t.Fatal("BFS on a long chain should skip sub-blocks")
	}
	if statsT.SkippedBlocks != statsU.SkippedBlocks {
		t.Errorf("traced run skipped %d, untraced %d — paths disagree",
			statsT.SkippedBlocks, statsU.SkippedBlocks)
	}
	if got := eU.SkippedBlocks.Load(); got != statsU.SkippedBlocks {
		t.Errorf("engine counter %d != run stats %d", got, statsU.SkippedBlocks)
	}
	var traceSum, rowUpper int64
	for _, it := range statsT.Trace {
		traceSum += it.SkippedBlocks
		rowUpper += int64(it.TotalBlockRows - it.ActiveBlockRows)
	}
	if traceSum != statsT.SkippedBlocks {
		t.Errorf("trace sums to %d, stats say %d", traceSum, statsT.SkippedBlocks)
	}
	// Sub-block granularity: every skipped block-row here owns >= 2
	// sub-blocks, so the sub-block count must strictly exceed the
	// row count whenever anything was skipped.
	if traceSum <= rowUpper {
		t.Errorf("skipped %d sub-blocks over %d skipped block-rows — count is row-granular", traceSum, rowUpper)
	}
}

// TestSparseMainPhaseZeroAlloc extends the zero-allocation guarantee to
// the sparse path: with the threshold forced high the warm iteration mix
// includes planIteration, the sparse Scatter walk and worklist rebuilds,
// and must still allocate nothing.
func TestSparseMainPhaseZeroAlloc(t *testing.T) {
	g := frontierGraph(t, 3000, 24000, 1.3, 11)
	e, err := New(g, Config{Threads: 1, SparseDensity: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm run: leaves the workspace mid-convergence state (non-empty
	// worklists, sparse modes engaged) for the measured iterations.
	if _, _, err := e.RunInWorkspace(algo.NewPageRank(g, 0.85, 0, 10), ws); err != nil {
		t.Fatal(err)
	}
	if ws.rc.first {
		t.Fatal("warm run left first-iteration flag set")
	}
	allocs := testing.AllocsPerRun(50, func() {
		ws.rc.iterateMain()
	})
	if allocs != 0 {
		t.Errorf("sparse main-phase iteration allocates %v objects, want 0", allocs)
	}
	if ws.rc.sparseRows == 0 {
		t.Error("forced threshold did not engage the sparse path")
	}
}

// TestConcurrentSparseDenseWorkspaces is the -race test of concurrent
// RunInWorkspace calls whose iterations mix sparse, dense and skipped
// rows on one shared engine: tolerance PageRank (frontier decays into
// sparse), BFS (wavefront), and fixed-iteration InDegree (all dense).
// Every concurrent result must equal its serial counterpart.
func TestConcurrentSparseDenseWorkspaces(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	g := frontierGraph(t, 2500, 20000, 1.3, 21)
	e, err := New(g, Config{Threads: 2, SparseDensity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	progs := []func() vprog.Program{
		func() vprog.Program { return algo.NewPageRank(g, 0.85, 1e-7, 100) },
		func() vprog.Program { return algo.NewBFS(g, 1) },
		func() vprog.Program { return algo.NewInDegree(6) },
	}
	serial := make([][]float64, len(progs))
	for i, np := range progs {
		res, err := e.Run(np())
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res.Values
	}

	const rounds = 3
	var wg sync.WaitGroup
	errCh := make(chan error, len(progs)*rounds)
	for i, np := range progs {
		for rd := 0; rd < rounds; rd++ {
			wg.Add(1)
			go func(i, rd int, np func() vprog.Program) {
				defer wg.Done()
				ws, err := e.NewWorkspace(1)
				if err != nil {
					errCh <- err
					return
				}
				res, _, err := e.RunInWorkspace(np(), ws)
				if err != nil {
					errCh <- err
					return
				}
				if !sameValues(res.Values, serial[i]) {
					errCh <- fmt.Errorf("prog %d round %d: concurrent result differs from serial", i, rd)
				}
			}(i, rd, np)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
