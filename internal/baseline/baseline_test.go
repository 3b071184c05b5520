package baseline

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

func tiny(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 2}, {Src: 5, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPullInDegreeOneIteration(t *testing.T) {
	g := tiny(t)
	e := NewPull(g, 2)
	res, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 3, 1, 1, 1}
	for v, w := range want {
		if res.Values[v] != w {
			t.Errorf("pull node %d = %v, want %v", v, res.Values[v], w)
		}
	}
}

func TestPushInDegreeOneIteration(t *testing.T) {
	g := tiny(t)
	e := NewPush(g, 4)
	res, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 3, 1, 1, 1}
	for v, w := range want {
		if res.Values[v] != w {
			t.Errorf("push node %d = %v, want %v", v, res.Values[v], w)
		}
	}
}

func TestPolymerInDegreeOneIteration(t *testing.T) {
	g := tiny(t)
	e := NewPolymer(g, 2, 3)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 3, 1, 1, 1}
	for v, w := range want {
		if res.Values[v] != w {
			t.Errorf("polymer node %d = %v, want %v", v, res.Values[v], w)
		}
	}
}

func TestBlockGASInDegreeOneIteration(t *testing.T) {
	g := tiny(t)
	e, err := NewBlockGAS(g, BlockGASConfig{Side: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algo.NewInDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 3, 1, 1, 1}
	for v, w := range want {
		if res.Values[v] != w {
			t.Errorf("blockgas node %d = %v, want %v", v, res.Values[v], w)
		}
	}
}

func TestBlockGASWidthMismatch(t *testing.T) {
	g := tiny(t)
	e, err := NewBlockGAS(g, BlockGASConfig{Side: 2, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(algo.NewCF(g, 4, 1)); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestEngineNames(t *testing.T) {
	g := tiny(t)
	bg, err := NewBlockGAS(g, BlockGASConfig{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{
		NewPull(g, 0).Name():       "pull",
		NewPush(g, 0).Name():       "push",
		NewPolymer(g, 0, 0).Name(): "polymer",
		bg.Name():                  "blockgas",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
}

func TestAtomicAddConcurrent(t *testing.T) {
	var x float64
	done := make(chan struct{})
	const workers, reps = 8, 1000
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < reps; i++ {
				atomicAdd(&x, 1)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if x != workers*reps {
		t.Fatalf("atomicAdd lost updates: %v", x)
	}
}

func TestAtomicMinConcurrent(t *testing.T) {
	x := math.Inf(1)
	done := make(chan struct{})
	const workers = 8
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 1000; i > w; i-- {
				atomicMin(&x, float64(i))
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if x != 1 {
		t.Fatalf("atomicMin final = %v, want 1", x)
	}
}

func TestFrontierBFSUnreachableAndOutOfRange(t *testing.T) {
	g := tiny(t)
	e := NewPush(g, 2)
	res, err := e.RunFrontierBFS(4, 0) // node 4 is a sink: nothing reachable
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[4] != 0 {
		t.Fatal("source must have level 0")
	}
	for v := 0; v < 6; v++ {
		if v != 4 && !math.IsInf(res.Values[v], 1) {
			t.Fatalf("node %d should be unreachable, got %v", v, res.Values[v])
		}
	}
	res, err = e.RunFrontierBFS(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if !math.IsInf(v, 1) {
			t.Fatal("out-of-range source must leave all nodes unreached")
		}
	}
}

func TestFrontierBFSLevels(t *testing.T) {
	// Path 0->1->2->3 plus shortcut 0->2.
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewPush(g, 2)
	res, err := e.RunFrontierBFS(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 1, 2}
	for v, w := range want {
		if res.Values[v] != w {
			t.Errorf("level[%d] = %v, want %v", v, res.Values[v], w)
		}
	}
}

func TestFrontierBFSDensePath(t *testing.T) {
	// A star from the hub reaches everything in one hop; the frontier's
	// out-edge volume (m) exceeds m/20, forcing the bottom-up dense step.
	n := 200
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.Node(v)},
			graph.Edge{Src: graph.Node(v), Dst: 0})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := NewPush(g, 2)
	res, err := e.RunFrontierBFS(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 0 {
		t.Fatal("source level must be 0")
	}
	for v := 1; v < n; v++ {
		if res.Values[v] != 1 {
			t.Fatalf("level[%d] = %v, want 1", v, res.Values[v])
		}
	}
	// Cross-check against the tropical program.
	trop, err := e.Run(algo.NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res.Values[v] != trop.Values[v] {
			t.Fatalf("dense path diverges at %d", v)
		}
	}
}

func TestPolymerPartitionCounts(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(8, 8, 55))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 7, 16} {
		e := NewPolymer(g, 2, parts)
		if e.Partitions() != parts {
			t.Fatalf("partitions = %d, want %d", e.Partitions(), parts)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
	}
	// More partitions than nodes must clamp.
	small, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewPolymer(small, 2, 10)
	if e.Partitions() > 3 {
		t.Fatalf("partitions = %d not clamped to n", e.Partitions())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPrepTimesPopulated(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(10, 8, 56))
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewBlockGAS(g, BlockGASConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]int64{
		"pull":     NewPull(g, 0).PrepTime.Nanoseconds(),
		"push":     NewPush(g, 0).PrepTime.Nanoseconds(),
		"polymer":  NewPolymer(g, 0, 0).PrepTime.Nanoseconds(),
		"blockgas": bg.PrepTime.Nanoseconds(),
	} {
		if d <= 0 {
			t.Errorf("%s preprocessing time not recorded", name)
		}
	}
}

func TestTrafficModelsOrdering(t *testing.T) {
	g, err := gen.RMAT(gen.GAPRMATConfig(10, 8, 57))
	if err != nil {
		t.Fatal(err)
	}
	pull := NewPull(g, 0)
	push := NewPush(g, 0)
	// Push pays atomic read-modify-write per edge: more traffic than pull.
	if push.TrafficPerIteration(1) <= pull.TrafficPerIteration(1) {
		t.Fatal("push model must exceed pull model")
	}
	bg, err := NewBlockGAS(g, BlockGASConfig{Side: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Blocking trades traffic for locality: far fewer random accesses.
	if bg.RandomAccessesPerIteration() >= pull.RandomAccessesPerIteration() {
		t.Fatal("blocking must reduce random accesses versus pull")
	}
}

// TestConcurrentBaselineRunsMatchSerial exercises the pooled-setup
// discipline under the race detector: every baseline engine runs InDegree
// from several goroutines at once on one shared instance, and each result
// must be bit-identical to the serial one. InDegree keeps all values
// integral, so even Push's atomic accumulation is order-insensitive.
func TestConcurrentBaselineRunsMatchSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	g, err := gen.RMAT(gen.GAPRMATConfig(8, 8, 61))
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewBlockGAS(g, BlockGASConfig{Side: 64, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	engines := []vprog.Engine{
		NewPull(g, 2),
		NewPush(g, 2),
		NewPolymer(g, 2, 3),
		bg,
	}
	for _, e := range engines {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			want, err := e.Run(algo.NewInDegree(3))
			if err != nil {
				t.Fatal(err)
			}
			const runs = 4
			results := make([][]float64, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := e.Run(algo.NewInDegree(3))
					if err != nil {
						errs[i] = err
						return
					}
					results[i] = res.Values
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for i, vals := range results {
				if len(vals) != len(want.Values) {
					t.Fatalf("run %d: %d values, want %d", i, len(vals), len(want.Values))
				}
				for v := range vals {
					if vals[v] != want.Values[v] {
						t.Fatalf("run %d: node %d = %v, want %v", i, v, vals[v], want.Values[v])
					}
				}
			}
		})
	}
}

// naivePull is the pull flow written out per edge: every in-edge computes
// its own message send(x_u, scale_u), rounded on its own (the float64
// conversion forbids fusing it into the sum), with the delta reduced over
// the same static per-worker split as sched.ForStatic.
func naivePull(g *graph.Graph, prog vprog.Program, threads int) *vprog.Result {
	n, w, ring := g.NumNodes(), prog.Width(), prog.Ring()
	x, y := make([]float64, n*w), make([]float64, n*w)
	scale := make([]float64, n)
	for v := 0; v < n; v++ {
		prog.Init(uint32(v), x[v*w:v*w+w])
		scale[v] = prog.Scale(uint32(v))
	}
	copy(y, x)
	t := min(threads, n)
	acc := make([]float64, w)
	iter := 0
	var delta float64
	for iter < prog.MaxIter() {
		partial := make([]float64, t)
		for worker := 0; worker < t; worker++ {
			for v := worker * n / t; v < (worker+1)*n/t; v++ {
				in := g.InNeighbors(graph.Node(v))
				if len(in) == 0 {
					continue
				}
				for l := range acc {
					acc[l] = ring.Identity()
				}
				for _, u := range in {
					for l := range acc {
						if ring == vprog.Sum {
							acc[l] += float64(x[int(u)*w+l] * scale[u])
						} else if m := x[int(u)*w+l] + scale[u]; m < acc[l] {
							acc[l] = m
						}
					}
				}
				partial[worker] += prog.Apply(uint32(v), acc, x[v*w:v*w+w], y[v*w:v*w+w])
			}
		}
		x, y = y, x
		iter++
		delta = 0
		for _, d := range partial {
			delta += d
		}
		if prog.Converged(delta, iter) {
			break
		}
	}
	return &vprog.Result{Values: x, Iterations: iter, Delta: delta}
}

// TestPullMatchesNaivePull pins the pull engine's once-per-iteration
// messages bit for bit to the per-edge pull: values, iteration count and
// delta of PageRank, InDegree, width-8 CF and BFS at Threads 1 and 3.
func TestPullMatchesNaivePull(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 1500, M: 12000, RegularFrac: 0.5, SeedFrac: 0.2, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]func() vprog.Program{
		"pagerank": func() vprog.Program { return algo.NewPageRank(g, 0.85, 1e-10, 40) },
		"indegree": func() vprog.Program { return algo.NewInDegree(3) },
		"cf8":      func() vprog.Program { return algo.NewCF(g, 8, 5) },
		"bfs":      func() vprog.Program { return algo.NewBFS(g, uint32(g.NumNodes()/3)) },
	}
	for _, threads := range []int{1, 3} {
		e := NewPull(g, threads)
		for name, mk := range progs {
			got, err := e.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			want := naivePull(g, mk(), threads)
			if got.Iterations != want.Iterations || math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
				t.Errorf("threads=%d %s: (iterations, delta) = (%d, %g), naive (%d, %g)",
					threads, name, got.Iterations, got.Delta, want.Iterations, want.Delta)
			}
			for i := range want.Values {
				if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
					t.Errorf("threads=%d %s: value %d = %g, naive %g", threads, name, i, got.Values[i], want.Values[i])
					break
				}
			}
		}
	}
}
