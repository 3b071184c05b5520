package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mixen"
	"mixen/internal/block"
	"mixen/internal/filter"
	"mixen/internal/memmodel"
)

// algo is one entry of a batch workload's portfolio. One operation of the
// workload is one round: every algo run once, back to back, on one engine.
type algo struct {
	name  string
	width int
	// iters is the fixed iteration count; 0 means the program runs to its
	// own fixpoint (BFS), where one more iteration changes nothing.
	iters int
	// integer marks whole-number results, compared exactly with the
	// baseline while they fit in 2^53 (any summation order is then exact).
	integer bool
	// program builds the round's program; key names what must hash the
	// same on every repetition (the BFS source varies by round).
	program func(iters, round int) mixen.Program
	key     func(round int) string
}

type batchWorkload struct {
	graph   func() (*mixen.Graph, error)
	threads int
	warmup  int
	algos   func(g *mixen.Graph) []algo
	// Traced-run probes that belong to this workload only.
	fused8, schedT1 bool
}

const (
	damping     = 0.85
	pagerankIts = 20
	setupReps   = 5
	probeReps   = 3
)

func pagerankAlgo(g *mixen.Graph) algo {
	return algo{
		name: "pagerank", width: 1, iters: pagerankIts,
		program: func(iters, _ int) mixen.Program { return mixen.NewPageRankProgram(g, damping, 0, iters) },
		key:     func(int) string { return "pagerank" },
	}
}

func rmatDense(o options) batchWorkload {
	scale := 20
	if o.smoke {
		scale = 12
	}
	return batchWorkload{
		graph:   func() (*mixen.Graph, error) { return mixen.GenerateRMAT(scale, 16, o.seed) },
		threads: o.host.NProc,
		warmup:  2,
		algos:   func(g *mixen.Graph) []algo { return []algo{pagerankAlgo(g)} },
		schedT1: true,
	}
}

func pldPortfolio(o options) batchWorkload {
	shrink := 1
	if o.smoke {
		shrink = 64
	}
	return batchWorkload{
		graph:   func() (*mixen.Graph, error) { return mixen.Dataset("pld", shrink) },
		threads: 1,
		warmup:  1,
		algos: func(g *mixen.Graph) []algo {
			sources := bfsSources(g, o.seed, 8)
			return []algo{
				{
					name: "indegree", width: 1, iters: 10, integer: true,
					program: func(iters, _ int) mixen.Program { return mixen.NewInDegreeProgram(iters) },
					key:     func(int) string { return "indegree" },
				},
				pagerankAlgo(g),
				{
					name: "cf", width: 8, iters: 5,
					program: func(iters, _ int) mixen.Program { return mixen.NewCFProgram(g, 8, iters) },
					key:     func(int) string { return "cf" },
				},
				{
					name: "bfs", width: 1, integer: true,
					program: func(_, round int) mixen.Program {
						return mixen.NewBFSProgram(g, sources[round%len(sources)])
					},
					key: func(round int) string { return fmt.Sprintf("bfs.%d", sources[round%len(sources)]) },
				},
			}
		},
		fused8: true,
	}
}

// bfsSources draws k distinct sources, by seed, from the top 1 % of
// regular nodes (in- and out-edges both) ranked by out-degree, so every
// BFS reaches most of the graph.
func bfsSources(g *mixen.Graph, seed int64, k int) []uint32 {
	var regular []uint32
	for v := 0; v < g.NumNodes(); v++ {
		if g.OutDegree(mixen.Node(v)) > 0 && g.InDegree(mixen.Node(v)) > 0 {
			regular = append(regular, uint32(v))
		}
	}
	byOutDegree(g, regular)
	top := regular[:max(min(k, len(regular)), len(regular)/100)]
	rng := rand.New(rand.NewSource(seed))
	picked := make([]uint32, 0, k)
	for _, i := range rng.Perm(len(top))[:min(k, len(top))] {
		picked = append(picked, top[i])
	}
	return picked
}

func hashValues(vals []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// relClose is the comparison of the repository's cross-engine tests.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// reference holds the pull baseline's answer for one hash key: at the
// algo's iteration count and at one more. Mixen's Post-Phase evaluates
// sinks from the final values, one step ahead of a synchronous engine, so
// sinks are compared with the longer run and every other node with the
// shorter one — the rule of internal/algo's equivalence tests.
type reference struct{ at, next []float64 }

func (a algo) reference(pull mixen.Engine, round int) (reference, error) {
	res, err := pull.Run(a.program(a.iters, round))
	if err != nil {
		return reference{}, err
	}
	ref := reference{at: res.Values, next: res.Values}
	if a.iters > 0 {
		if res, err = pull.Run(a.program(a.iters+1, round)); err != nil {
			return reference{}, err
		}
		ref.next = res.Values
	}
	return ref, nil
}

// mismatches counts the lanes of got that disagree with the reference.
func (a algo) mismatches(g *mixen.Graph, got []float64, ref reference) int {
	exact := a.integer
	if exact {
		for _, v := range ref.next {
			if !math.IsInf(v, 0) && math.Abs(v) >= 1<<53 {
				exact = false
				break
			}
		}
	}
	bad := 0
	for v := 0; v < g.NumNodes(); v++ {
		want := ref.at
		if g.OutDegree(mixen.Node(v)) == 0 {
			want = ref.next
		}
		for l := v * a.width; l < (v+1)*a.width; l++ {
			if got[l] == want[l] || (!exact && relClose(got[l], want[l], 1e-9)) {
				continue
			}
			bad++
		}
	}
	return bad
}

// liveHeap is the heap in use after a collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// batchRun is what one run of a batch workload accumulates.
type batchRun struct {
	w   batchWorkload
	o   options
	tr  *tracer
	r   *result
	g   *mixen.Graph
	eng *mixen.MixenEngine

	algos  []algo
	pulls  map[int]mixen.Engine // the correctness baseline, by lane width
	hashes map[string]uint64    // first result hash per key
	nextID int64                // request id of the next traced run

	wall    map[bool][]float64          // round times in s, by traced or not
	perAlgo map[string][]float64        // run times in s, by algo
	stats   map[string][]mixen.RunStats // engine-reported phases, by algo
	// Traced runs: the preprocessing layers called on their own.
	filterS, partitionS []float64
}

// algoRun is one engine run: its wall time, its engine-reported phases and
// its result.
type algoRun struct {
	wall  time.Duration
	stats mixen.RunStats
	res   *mixen.Result
}

// runBatch drives a batch workload through the public Go API in-process.
func runBatch(ctx context.Context, w batchWorkload, o options, tr *tracer, r *result) error {
	start := time.Now()
	g, err := w.graph()
	if err != nil {
		return fmt.Errorf("generate graph: %w", err)
	}
	tr.add("gen.generate", 0, 0, start, time.Now())
	r.set("gen.generate_s", time.Since(start).Seconds())
	b := &batchRun{
		w: w, o: o, tr: tr, r: r, g: g, algos: w.algos(g),
		pulls: map[int]mixen.Engine{}, hashes: map[string]uint64{},
		wall: map[bool][]float64{}, perAlgo: map[string][]float64{}, stats: map[string][]mixen.RunStats{},
	}
	if err := b.setUp(); err != nil {
		return err
	}
	if err := b.window(ctx); err != nil {
		return err
	}
	for key, h := range b.hashes {
		r.Hashes[key] = fmt.Sprintf("%016x", h)
	}
	r.setMedian("op_p50_ms", b.wall[false], 1e3)
	r.set("ops_per_s", 1/mean(b.wall[false]))
	var allMs []float64
	for _, s := range append(b.wall[false], b.wall[true]...) {
		allMs = append(allMs, s*1e3)
	}
	r.setLatencies(allMs)
	for name, times := range b.perAlgo {
		r.setMedian("core."+name+"_s", times, 1)
	}
	if tr == nil {
		return nil
	}
	r.set("trace_overhead_pct", (median(b.wall[true])/median(b.wall[false])-1)*100)
	return b.layers()
}

// round runs the portfolio once on e.
func (b *batchRun) round(e *mixen.MixenEngine, n int, traced bool) ([]algoRun, error) {
	runs := make([]algoRun, len(b.algos))
	for i, a := range b.algos {
		prog := a.program(a.iters, n)
		t0 := time.Now()
		res, stats, err := e.RunWithStats(prog)
		t1 := time.Now()
		b.r.Attempted++
		if err != nil {
			b.r.Failed++
			return nil, fmt.Errorf("%s run: %w", a.name, err)
		}
		runs[i] = algoRun{t1.Sub(t0), stats, res}
		if traced {
			// The engine's own phase times become children of the
			// benchmark's span around the run.
			b.nextID++
			parent := b.tr.add("run."+a.name, 0, b.nextID, t0, t1)
			pre, main := t0.Add(stats.PreTime), t0.Add(stats.PreTime+stats.MainTime)
			b.tr.add("core.pre", parent, b.nextID, t0, pre)
			b.tr.add("core.main", parent, b.nextID, pre, main)
			b.tr.add("core.post", parent, b.nextID, main, main.Add(stats.PostTime))
		}
	}
	return runs, nil
}

// setUp is the system's own preprocessing, several times over. The first
// build also measures memory: live heap across New plus one full round.
func (b *batchRun) setUp() error {
	cfg := mixen.Config{Threads: b.w.threads}
	var setup []float64
	for i := 0; i < setupReps; i++ {
		var before uint64
		if i == 0 {
			before = liveHeap()
		}
		t0 := time.Now()
		e, err := mixen.New(b.g, cfg)
		if err != nil {
			return fmt.Errorf("mixen.New: %w", err)
		}
		b.tr.add("mixen.New", 0, 0, t0, time.Now())
		setup = append(setup, time.Since(t0).Seconds())
		if i == 0 {
			runs, err := b.round(e, 0, false)
			if err != nil {
				return err
			}
			b.r.set("mem_mb", (float64(liveHeap())-float64(before))/1e6)
			runtime.KeepAlive(runs)
		}
		b.eng = e
		if b.tr == nil {
			continue
		}
		// A traced run also calls the two preprocessing layers on their
		// own, next to the New they are compared with.
		t0 = time.Now()
		f := filter.Filter(b.g)
		t1 := time.Now()
		if _, err := block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, block.Config{MaxLoadFactor: 2, Threads: b.w.threads}); err != nil {
			return fmt.Errorf("block.NewPartition: %w", err)
		}
		t2 := time.Now()
		b.tr.add("filter.Filter", 0, 0, t0, t1)
		b.tr.add("block.NewPartition", 0, 0, t1, t2)
		b.filterS = append(b.filterS, t1.Sub(t0).Seconds())
		b.partitionS = append(b.partitionS, t2.Sub(t1).Seconds())
	}
	b.r.setMedian("setup_s", setup, 1)
	return nil
}

// verify checks one round's results: the first result of every hash key
// against the pull baseline, every later one against the first's hash.
func (b *batchRun) verify(runs []algoRun, n int) error {
	for i, a := range b.algos {
		key := a.key(n)
		h := hashValues(runs[i].res.Values)
		if want, seen := b.hashes[key]; seen {
			problem := ""
			if h != want {
				problem = fmt.Sprintf("%s: result hash %016x differs from the first repetition's %016x", key, h, want)
			}
			b.r.check(problem)
			continue
		}
		b.hashes[key] = h
		if b.pulls[a.width] == nil {
			pull, err := mixen.NewEngine("pull", b.g, b.w.threads, a.width)
			if err != nil {
				return err
			}
			b.pulls[a.width] = pull
		}
		ref, err := a.reference(b.pulls[a.width], n)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", key, err)
		}
		problem := ""
		if bad := a.mismatches(b.g, runs[i].res.Values, ref); bad > 0 {
			problem = fmt.Sprintf("%s: %d values differ from the pull baseline", key, bad)
		}
		b.r.check(problem)
	}
	return nil
}

// window is the warm-up and then the timed rounds. In a traced run every
// second round records spans, so traced and untraced rounds see the same
// machine state.
func (b *batchRun) window(ctx context.Context) error {
	var begin time.Time
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		timed := n >= b.w.warmup
		if n == b.w.warmup {
			begin = time.Now()
		}
		traced := timed && b.tr != nil && n%2 == 1
		runs, err := b.round(b.eng, n, traced)
		if err != nil {
			return err
		}
		if err := b.verify(runs, n); err != nil {
			return err
		}
		if !timed {
			continue
		}
		var total time.Duration
		for i, a := range b.algos {
			total += runs[i].wall
			b.perAlgo[a.name] = append(b.perAlgo[a.name], runs[i].wall.Seconds())
			b.stats[a.name] = append(b.stats[a.name], runs[i].stats)
		}
		b.wall[traced] = append(b.wall[traced], total.Seconds())
		enough := len(b.wall[false]) >= 2 && (b.tr == nil || len(b.wall[true]) >= 2)
		if (time.Since(begin).Seconds() >= b.o.seconds || b.o.smoke) && enough {
			return nil
		}
	}
}

// layers derives the per-layer metrics of a traced run.
func (b *batchRun) layers() error {
	r, g, eng := b.r, b.g, b.eng
	edges := float64(g.NumEdges())
	pick := func(name string, f func(mixen.RunStats) time.Duration) []float64 {
		var out []float64
		for _, s := range b.stats[name] {
			out = append(out, f(s).Seconds())
		}
		return out
	}
	mainTime := func(s mixen.RunStats) time.Duration { return s.MainTime }

	// The engine-reported phases of the PageRank runs, next to the bytes
	// the model predicts for them and the bandwidth the host delivers.
	r.setMedian("core.pre_s", pick("pagerank", func(s mixen.RunStats) time.Duration { return s.PreTime }), 1)
	r.setMedian("core.main_s", pick("pagerank", mainTime), 1)
	r.setMedian("core.post_s", pick("pagerank", func(s mixen.RunStats) time.Duration { return s.PostTime }), 1)
	r.setMedian("core.phase_sum_gap_pct", selfShare(b.tr.snapshot(), "run.pagerank"), 100)
	if gap := r.Values["core.phase_sum_gap_pct"]; gap >= 5 {
		fmt.Fprintf(os.Stderr, "warning: %s: engine phases leave %.1f%% of a PageRank run unexplained (want < 5%%)\n", r.Workload, gap)
	}
	mainS := r.Values["core.main_s"]
	r.set("core.main_ns_per_edge", mainS*1e9/(pagerankIts*edges))
	r.set("core.medges_per_s", pagerankIts*edges/mainS/1e6)
	model := float64(eng.TrafficPerIteration())
	r.set("core.model_bytes_per_iter", model)
	r.set("core.effective_gbps", model*pagerankIts/mainS/1e9)
	r.set("host.copy_gbps", copyBandwidth(b.o.host.L2Bytes))
	r.set("core.bw_fraction", r.Values["core.effective_gbps"]/r.Values["host.copy_gbps"])

	for _, a := range b.algos {
		last := b.stats[a.name][len(b.stats[a.name])-1]
		r.set("core.iterations."+a.name, float64(last.MainIterations))
		switch a.name {
		case "bfs":
			its := float64(max(last.MainIterations, 1))
			r.set("core.bfs_scatter_ratio", float64(last.ScatterEntries)/(its*float64(max(eng.P.CompressedEntries, 1))))
			r.set("core.bfs_gather_ratio", float64(last.GatherEdges)/(its*float64(max(eng.P.Nnz, 1))))
			r.set("core.bfs_skipped_blocks", float64(last.SkippedBlocks))
		case "cf":
			r.set("core.cf_ns_per_edge_lane", median(pick("cf", mainTime))*1e9/(float64(a.iters)*edges*float64(a.width)))
		}
	}

	r.setMedian("filter.filter_s", b.filterS, 1)
	r.setMedian("block.partition_s", b.partitionS, 1)
	r.set("core.prep_gap_pct", (r.Values["setup_s"]-median(b.filterS)-median(b.partitionS))/r.Values["setup_s"]*100)

	// Allocation per PageRank run, from the runtime's own counters.
	pagerank := pagerankAlgo(g).program(pagerankIts, 0)
	var allocs, bytes []float64
	for i := 0; i < probeReps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.Run(pagerank); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	r.setMedian("core.allocs_per_run", allocs, 1)
	r.setMedian("core.bytes_per_run", bytes, 1)

	// timeRuns times probeReps PageRank runs on e, after one run that
	// builds the engine's workspace.
	timeRuns := func(e mixen.Engine) ([]float64, error) {
		var times []float64
		for i := 0; i <= probeReps; i++ {
			t0 := time.Now()
			if _, err := e.Run(pagerank); err != nil {
				return nil, err
			}
			if i > 0 {
				times = append(times, time.Since(t0).Seconds())
			}
		}
		return times, nil
	}
	// The pull baseline as a speed reference (the paper's Table 3 shape).
	pull, err := timeRuns(b.pulls[1])
	if err != nil {
		return err
	}
	r.setMedian("baseline.pull_pagerank_s", pull, 1)
	r.set("baseline.speedup_vs_pull", median(pull)/r.Values["core.pagerank_s"])
	if b.w.schedT1 {
		serial, err := mixen.New(g, mixen.Config{Threads: 1})
		if err != nil {
			return err
		}
		t1, err := timeRuns(serial)
		if err != nil {
			return err
		}
		r.setMedian("sched.t1_pagerank_s", t1, 1)
		r.set("sched.speedup", median(t1)/r.Values["core.pagerank_s"])
	}
	if b.w.fused8 {
		if err := fusedProbe(g, eng, b.o, r); err != nil {
			return err
		}
	}

	// The model's bytes against a cache simulation of the same iteration.
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = 1
	}
	t0 := time.Now()
	sim := memmodel.TraceMixen(eng, x, memmodel.PaperHierarchy())
	b.tr.add("memmodel.TraceMixen", 0, 0, t0, time.Now())
	r.set("memmodel.sim_bytes_per_iter", float64(sim.TrafficBytes))
	r.set("memmodel.sim_over_model", float64(sim.TrafficBytes)/model)
	return nil
}

// fusedProbe times eight personalized PageRank queries fused into one
// width-8 pass against the same eight run one after another.
func fusedProbe(g *mixen.Graph, e *mixen.MixenEngine, o options, r *result) error {
	sources := bfsSources(g, o.seed, 8)
	progs := func() []mixen.Program {
		ps := make([]mixen.Program, len(sources))
		for i, s := range sources {
			ps[i] = mixen.NewPersonalizedPageRankProgram(g, s, damping, 0, pagerankIts)
		}
		return ps
	}
	var fused, serial []float64
	for i := 0; i < probeReps; i++ {
		batch, err := mixen.NewBatchProgram(g.NumNodes(), progs()...)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := e.Run(batch); err != nil {
			return err
		}
		fused = append(fused, time.Since(t0).Seconds())
		t0 = time.Now()
		for _, p := range progs() {
			if _, err := e.Run(p); err != nil {
				return err
			}
		}
		serial = append(serial, time.Since(t0).Seconds())
	}
	r.setMedian("core.fused8_s", fused, 1)
	r.setMedian("core.serial8_s", serial, 1)
	r.set("core.fused8_speedup", median(serial)/median(fused))
	return nil
}

// copyBandwidth is a STREAM-style copy over arrays of four times the L2
// size or more (so "vs L2": the shared last-level cache is far larger),
// in GB/s counting bytes read plus bytes written.
func copyBandwidth(l2Bytes int) float64 {
	words := max(4*l2Bytes, 16<<20) / 8
	src, dst := make([]float64, words), make([]float64, words)
	for i := range src {
		src[i] = float64(i)
	}
	best := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		copy(dst, src)
		if gbps := float64(2*8*words) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	runtime.KeepAlive(dst)
	return best
}
