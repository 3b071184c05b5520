package core

import (
	"runtime"
	"sync"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
)

func skewedForConcurrency(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 1500, M: 12000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentRunsMatchSerial is the -race regression test for the
// immutable-partition refactor: PageRank and InDegree run concurrently on
// ONE shared engine, and every concurrent result must be bit-identical to
// its serial counterpart. On the old design this raced on P.SetWidth /
// P.Sta / sub-block bin values and produced corrupt results.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // force real parallelism even on a 1-core host
	defer runtime.GOMAXPROCS(old)

	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	newPR := func() *algo.PageRank { return algo.NewPageRank(g, 0.85, 0, 20) }
	newIN := func() *algo.InDegree { return algo.NewInDegree(5) }

	serialPR, err := e.Run(newPR())
	if err != nil {
		t.Fatal(err)
	}
	serialIN, err := e.Run(newIN())
	if err != nil {
		t.Fatal(err)
	}

	const pairs = 4
	prResults := make([][]float64, pairs)
	inResults := make([][]float64, pairs)
	errs := make([]error, 2*pairs)
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(newPR())
			if err != nil {
				errs[2*i] = err
				return
			}
			prResults[i] = res.Values
		}(i)
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(newIN())
			if err != nil {
				errs[2*i+1] = err
				return
			}
			inResults[i] = res.Values
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pairs; i++ {
		if !sameValues(prResults[i], serialPR.Values) {
			t.Errorf("concurrent PageRank run %d differs from serial result", i)
		}
		if !sameValues(inResults[i], serialIN.Values) {
			t.Errorf("concurrent InDegree run %d differs from serial result", i)
		}
	}
}

// TestRunInWorkspaceReuse verifies the explicit-workspace path: repeated
// runs in one workspace reproduce the pooled-path results exactly, and the
// returned values alias the workspace buffer (the documented contract).
func TestRunInWorkspaceReuse(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(algo.NewPageRank(g, 0.85, 0, 15))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, _, err := e.RunInWorkspace(algo.NewPageRank(g, 0.85, 0, 15), ws)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(res.Values, want.Values) {
			t.Fatalf("workspace run %d differs from pooled run", i)
		}
		if &res.Values[0] != &ws.out[0] {
			t.Fatal("RunInWorkspace values should alias the workspace buffer")
		}
	}
}

// TestRunInWorkspaceValidation locks in the misuse errors: zero width at
// construction, width mismatch at run time, and foreign workspaces.
func TestRunInWorkspaceValidation(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewWorkspace(0); err == nil {
		t.Fatal("NewWorkspace(0) should fail")
	}
	ws, err := e.NewWorkspace(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunInWorkspace(algo.NewInDegree(2), ws); err == nil {
		t.Fatal("width-1 program in a width-4 workspace should fail")
	}
	e2, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ws1, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.RunInWorkspace(algo.NewInDegree(2), ws1); err == nil {
		t.Fatal("foreign workspace should be rejected")
	}
}

// TestMainPhaseIterationAllocatesNothing asserts the zero-allocation
// steady state the workspace refactor exists for: with a reused workspace,
// one full Main-Phase iteration (Scatter + Cache + Gather/Apply over
// prebuilt loop bodies and pooled scheduler jobs) performs zero heap
// allocations. Threads is pinned to 1 so the measurement is deterministic;
// the parallel path reuses pooled job descriptors and allocates only when
// helper wakeups outrun the free list.
func TestMainPhaseIterationAllocatesNothing(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: bind a run into the workspace so rc holds a live program,
	// masks, and swapped property arrays.
	if _, _, err := e.RunInWorkspace(algo.NewPageRank(g, 0.85, 0, 10), ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ws.rc.iterateMain()
	})
	if allocs != 0 {
		t.Fatalf("main-phase iteration allocated %.1f times per run, want 0", allocs)
	}
}

// TestMultiThreadRunAllocations pins the per-run allocation count of a
// reused workspace at Threads 2 on a graph with seeds and sinks: the seed
// partial bins and the sink accumulators live in the workspace, so a whole
// run allocates its Result and at most a stray scheduler job descriptor.
func TestMultiThreadRunAllocations(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.F.NumSeed < 2 || e.F.NumSink == 0 {
		t.Fatalf("fixture has %d seeds / %d sinks; the test needs both", e.F.NumSeed, e.F.NumSink)
	}
	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	prog := algo.NewPageRank(g, 0.85, 0, 5)
	if _, _, err := e.RunInWorkspace(prog, ws); err != nil { // sizes the partials
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := e.RunInWorkspace(prog, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a Threads=2 run in a reused workspace allocated %.1f times, want at most 2", allocs)
	}
}
