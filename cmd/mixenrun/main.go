// Command mixenrun executes one algorithm on one graph with one engine and
// prints the top-ranked nodes (or BFS reachability summary).
//
// Usage:
//
//	mixenrun -preset wiki -algo pagerank -engine mixen -top 10
//	mixenrun -edgelist graph.txt -algo bfs -source 0
//	mixenrun -preset weibo -algo indegree -engine pull
//
// Observability:
//
//	mixenrun -preset wiki -algo pagerank -trace            # per-iteration timeline
//	mixenrun -preset wiki -algo pagerank -report -         # RunReport JSON to stdout
//	mixenrun -preset wiki -algo pagerank -metrics-addr :6060 &
//	curl localhost:6060/metrics                            # live snapshot
//	go tool pprof localhost:6060/debug/pprof/profile       # CPU profile
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mixen"
)

// algoFlags records which tuning flags each algorithm actually consumes, so
// the run header can report the effective configuration and call out
// ignored flags instead of silently dropping them.
type algoFlags struct {
	iters, tol, source, k bool
	// engine reports whether -engine selects the execution engine; library
	// routines (cc, lpa, triangles, kcore, hits, salsa) run on their own
	// internal engines.
	engine bool
}

var algoInfo = map[string]algoFlags{
	"indegree":  {iters: true, engine: true},
	"pagerank":  {iters: true, tol: true, engine: true},
	"ppr":       {iters: true, tol: true, source: true, engine: true},
	"cf":        {iters: true, k: true, engine: true},
	"bfs":       {source: true, engine: true},
	"cc":        {},
	"lpa":       {iters: true},
	"triangles": {},
	"kcore":     {},
	"hits":      {iters: true, tol: true},
	"salsa":     {iters: true, tol: true},
}

func main() {
	preset := flag.String("preset", "", "dataset stand-in to generate")
	shrink := flag.Int("shrink", 8, "preset shrink factor")
	edgelist := flag.String("edgelist", "", "path to a text edge list")
	algoName := flag.String("algo", "pagerank", "algorithm: indegree, pagerank, cf, bfs, cc, lpa, triangles, kcore, hits, salsa")
	engine := flag.String("engine", "mixen", "engine: mixen, pull, push, polymer, blockgas")
	iters := flag.Int("iters", 100, "max iterations")
	tol := flag.Float64("tol", 1e-9, "convergence tolerance (pagerank, hits, salsa)")
	source := flag.Uint("source", 0, "BFS source node")
	top := flag.Int("top", 10, "how many top nodes to print")
	k := flag.Int("k", 8, "CF latent dimensions")
	threads := flag.Int("threads", 0, "worker threads (0 = all cores)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	trace := flag.Bool("trace", false, "print the per-iteration timeline (mixen engine)")
	sparse := flag.Bool("sparse", true, "allow sparsity-aware Scatter on quiet block-rows (mixen engine); -sparse=false forces every active row dense")
	autotune := flag.Bool("autotune", false, "pick the block side by timing candidate partitions before the run (mixen engine)")
	reportPath := flag.String("report", "", "write the RunReport JSON here (\"-\" for stdout)")
	parallel := flag.Int("parallel", 1, "after the reported run, issue N concurrent runs over the same engine and report runs/sec")
	batch := flag.Int("batch", 1, "after the reported run, serve K concurrent queries through the batcher as one fused width-K pass and report queries/sec (mixen engine)")
	flag.Parse()

	info, ok := algoInfo[*algoName]
	if !ok {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	g, err := loadGraph(*preset, *shrink, *edgelist)
	if err != nil {
		fail(err)
	}

	// Observability wiring: one registry feeds the engine, the scheduler
	// and the HTTP endpoint.
	var reg *mixen.MetricsRegistry
	if *metricsAddr != "" || *trace || *reportPath != "" {
		reg = mixen.NewMetricsRegistry()
	}
	if *metricsAddr != "" {
		mixen.InstrumentScheduler(reg)
		srv, err := mixen.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr)
	}

	graphName := *preset
	if graphName == "" {
		graphName = *edgelist
	}
	report := &mixen.RunReport{
		Algorithm: *algoName,
		Graph: mixen.GraphInfo{
			Name:  graphName,
			Nodes: g.NumNodes(),
			Edges: g.NumEdges(),
		},
		Config: map[string]string{},
	}

	// Effective-config header: what the run will actually use, plus any
	// flags the chosen algorithm ignores.
	var ignored []string
	addCfg := func(name, val string, used bool) {
		if used {
			report.Config[name] = val
		} else if isFlagSet(name) {
			ignored = append(ignored, "-"+name)
		}
	}
	addCfg("iters", strconv.Itoa(*iters), info.iters)
	addCfg("tol", strconv.FormatFloat(*tol, 'g', -1, 64), info.tol)
	addCfg("source", strconv.FormatUint(uint64(*source), 10), info.source)
	addCfg("k", strconv.Itoa(*k), info.k)
	report.Config["threads"] = strconv.Itoa(*threads)

	if info.engine {
		report.Engine = *engine
	} else {
		report.Engine = "library"
		if isFlagSet("engine") {
			ignored = append(ignored, "-engine")
		}
	}
	if isFlagSet("sparse") && !(info.engine && *engine == "mixen") {
		fmt.Fprintln(os.Stderr, "mixenrun: -sparse applies only to the mixen engine; ignoring")
	}
	if *autotune && !(info.engine && *engine == "mixen") {
		fmt.Fprintln(os.Stderr, "mixenrun: -autotune applies only to the mixen engine; ignoring")
		*autotune = false
	}
	if *trace && !(info.engine && *engine == "mixen") {
		fmt.Fprintln(os.Stderr, "mixenrun: -trace requires an engine-run algorithm on the mixen engine; ignoring")
		*trace = false
	}
	if *parallel > 1 && !info.engine {
		fmt.Fprintln(os.Stderr, "mixenrun: -parallel requires an engine-run algorithm; ignoring")
		*parallel = 1
	}
	if *batch > 1 && !(info.engine && *engine == "mixen") {
		fmt.Fprintln(os.Stderr, "mixenrun: -batch requires an engine-run algorithm on the mixen engine; ignoring")
		*batch = 1
	}

	fmt.Printf("graph: %v\n", g)
	fmt.Println(report.FormatHeader())
	for _, f := range ignored {
		fmt.Printf("note: %s is ignored by -algo %s\n", f, *algoName)
	}

	if info.engine {
		runEngineAlgo(g, report, reg, *algoName, *engine, engineOpts{
			iters: *iters, tol: *tol, source: uint32(*source), k: *k,
			threads: *threads, top: *top, trace: *trace, parallel: *parallel,
			batch: *batch, sparse: *sparse, autotune: *autotune,
		})
	} else {
		runLibraryAlgo(g, report, *algoName, *iters, *tol, *top)
	}

	if reg != nil {
		s := reg.Snapshot()
		report.Metrics = &s
	}
	if *reportPath != "" {
		writeReport(report, *reportPath)
	}
}

type engineOpts struct {
	iters, k, threads, top int
	tol                    float64
	source                 uint32
	trace                  bool
	parallel               int
	batch                  int
	sparse                 bool
	autotune               bool
}

// runEngineAlgo executes one of the vertex-program algorithms (indegree,
// pagerank, cf, bfs) on the selected engine, filling in the report's phase
// breakdown and trace as it goes.
func runEngineAlgo(g *mixen.Graph, report *mixen.RunReport, reg *mixen.MetricsRegistry, algoName, engine string, o engineOpts) {
	width := 1
	if algoName == "cf" {
		width = o.k
	}

	// Each run gets its own program value so concurrent runs never share
	// program state (the engines themselves are concurrency-safe).
	newProg := func() mixen.Program {
		switch algoName {
		case "indegree":
			return mixen.NewInDegreeProgram(o.iters)
		case "pagerank":
			return mixen.NewPageRankProgram(g, 0.85, o.tol, o.iters)
		case "ppr":
			return mixen.NewPersonalizedPageRankProgram(g, o.source, 0.85, o.tol, o.iters)
		case "cf":
			return mixen.NewCFProgram(g, o.k, o.iters)
		case "bfs":
			return mixen.NewBFSProgram(g, o.source)
		}
		return nil
	}
	prog := newProg()

	var (
		res *mixen.Result
		err error
		eng mixen.Engine
	)
	if engine == "mixen" {
		// The core engine gets the full observability treatment: collector
		// during preprocessing, per-iteration trace, phase stats.
		var col mixen.Collector
		if reg != nil {
			col = reg
		}
		e, nerr := mixen.New(g, mixen.Config{
			Threads: o.threads, Trace: o.trace, Collector: col,
			DisableSparse: !o.sparse, AutoTune: o.autotune,
		})
		if nerr != nil {
			fail(nerr)
		}
		eng = e
		var stats mixen.RunStats
		res, stats, err = e.RunWithStats(prog)
		if err != nil {
			fail(err)
		}
		for _, tr := range e.Tuned {
			if tr.Chosen {
				fmt.Printf("autotune: chose side %d from %d candidates in %v\n",
					tr.Side, len(e.Tuned), e.Prep.TuneTime.Round(time.Millisecond))
			}
		}
		algoCfg := report.Config
		*report = *e.BuildReport(algoName, report.Graph.Name, res, stats)
		for k, v := range algoCfg {
			if _, exists := report.Config[k]; !exists {
				report.Config[k] = v
			}
		}
		if o.trace {
			fmt.Println(mixen.FormatTimeline(stats.Trace))
		}
		fmt.Println(report.FormatSummary())
	} else {
		e, nerr := mixen.NewEngine(engine, g, o.threads, width)
		if nerr != nil {
			fail(nerr)
		}
		eng = e
		if reg != nil {
			mixen.Instrument(e, reg)
		}
		res, err = e.Run(prog)
		if err != nil {
			fail(err)
		}
		report.Iterations = res.Iterations
		report.Delta = res.Delta
	}

	if o.parallel > 1 {
		runConcurrent(eng, newProg, res.Values, o.parallel)
	}
	if o.batch > 1 {
		if ce, ok := eng.(*mixen.MixenEngine); ok {
			runBatched(ce, newProg, res.Values, o.batch)
		}
	}

	switch algoName {
	case "indegree":
		printTop("indegree", res.Values, o.top)
	case "pagerank":
		fmt.Printf("converged after %d iterations (delta %.3g)\n", res.Iterations, res.Delta)
		printTop("pagerank", res.Values, o.top)
	case "ppr":
		fmt.Printf("converged after %d iterations (delta %.3g)\n", res.Iterations, res.Delta)
		printTop(fmt.Sprintf("ppr(%d)", o.source), res.Values, o.top)
	case "cf":
		fmt.Printf("cf: %d iterations, %d latent values\n", res.Iterations, len(res.Values))
	case "bfs":
		reached, maxLevel := 0, 0.0
		for _, l := range res.Values {
			if !math.IsInf(l, 1) {
				reached++
				if l > maxLevel {
					maxLevel = l
				}
			}
		}
		fmt.Printf("bfs from %d: reached %d/%d nodes, eccentricity %.0f, %d level-sync rounds\n",
			o.source, reached, g.NumNodes(), maxLevel, res.Iterations)
	}
}

// runConcurrent issues n concurrent runs over one shared engine (the
// concurrent-serving pattern), cross-checks every result against the
// serial reference, and reports aggregate throughput.
func runConcurrent(e mixen.Engine, newProg func() mixen.Program, want []float64, n int) {
	results := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(newProg())
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.Values
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			fail(fmt.Errorf("parallel run %d: %w", i, err))
		}
	}
	mismatches := 0
	for _, vals := range results {
		if !equalValues(vals, want) {
			mismatches++
		}
	}
	if mismatches > 0 {
		fail(fmt.Errorf("parallel: %d of %d concurrent runs differ from the serial result", mismatches, n))
	}
	fmt.Printf("parallel: %d concurrent runs in %v (%.2f runs/sec), all identical to serial\n",
		n, wall.Round(time.Millisecond), float64(n)/wall.Seconds())
}

// runBatched serves k concurrent queries through the batcher — ONE fused
// width-k pass instead of k separate runs — cross-checks every demuxed
// result against the serial reference, and reports throughput.
func runBatched(e *mixen.MixenEngine, newProg func() mixen.Program, want []float64, k int) {
	b := mixen.NewBatcher(e, mixen.BatcherConfig{MaxBatch: k, Width: newProg().Width()})
	defer b.Close()
	progs := make([]mixen.Program, k)
	for i := range progs {
		progs[i] = newProg()
	}
	t0 := time.Now()
	// One lane group: the k programs reach the batcher together and leave
	// as one fused run (submitted one by one, the first would be dispatched
	// alone and the rest queue behind it).
	futs, err := b.SubmitAllCtx(context.Background(), progs)
	if err != nil {
		fail(fmt.Errorf("batch submit: %w", err))
	}
	mismatches, fusedAs := 0, 0
	for i, fut := range futs {
		res, err := fut.Wait()
		if err != nil {
			fail(fmt.Errorf("batch query %d: %w", i, err))
		}
		if !equalValues(res.Values, want) {
			mismatches++
		}
		fusedAs = fut.BatchSize()
	}
	wall := time.Since(t0)
	if mismatches > 0 {
		fail(fmt.Errorf("batch: %d of %d fused queries differ from the serial result", mismatches, k))
	}
	fmt.Printf("batch: %d queries fused into width-%d passes (batch size %d) in %v (%.2f queries/sec), all identical to serial\n",
		k, fusedAs*newProg().Width(), fusedAs, wall.Round(time.Millisecond), float64(k)/wall.Seconds())
}

func equalValues(a, b []float64) bool {
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

// runLibraryAlgo executes the algorithms that run on their own internal
// engines (cc, lpa, triangles, kcore, hits, salsa).
func runLibraryAlgo(g *mixen.Graph, report *mixen.RunReport, algoName string, iters int, tol float64, top int) {
	switch algoName {
	case "cc":
		labels, err := mixen.ConnectedComponents(g)
		if err != nil {
			fail(err)
		}
		comps := map[float64]int{}
		for _, l := range labels {
			comps[l]++
		}
		largest := 0
		for _, c := range comps {
			if c > largest {
				largest = c
			}
		}
		fmt.Printf("cc: %d weakly-connected components, largest has %d nodes\n", len(comps), largest)
	case "lpa":
		labels, rounds := mixen.LabelPropagation(g, iters)
		sizes := map[uint32]int{}
		largest := 0
		for _, l := range labels {
			sizes[l]++
			if sizes[l] > largest {
				largest = sizes[l]
			}
		}
		report.Iterations = rounds
		fmt.Printf("lpa: %d communities after %d rounds, largest has %d nodes\n",
			len(sizes), rounds, largest)
	case "triangles":
		fmt.Printf("triangles: %d\n", mixen.CountTriangles(g))
	case "kcore":
		core := mixen.KCore(g)
		var maxCore int32
		for _, c := range core {
			if c > maxCore {
				maxCore = c
			}
		}
		counts := make([]int, maxCore+1)
		for _, c := range core {
			counts[c]++
		}
		fmt.Printf("kcore: degeneracy %d\n", maxCore)
		for k := int(maxCore); k >= 0 && k > int(maxCore)-5; k-- {
			fmt.Printf("  core %d: %d nodes\n", k, counts[k])
		}
	case "hits":
		a, _ := mixen.HITS(g, iters, tol)
		printTop("authority", a, top)
	case "salsa":
		a, _ := mixen.SALSA(g, iters, tol)
		printTop("authority", a, top)
	}
}

// isFlagSet reports whether the named flag was given on the command line.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func writeReport(r *mixen.RunReport, path string) {
	data, err := r.JSON()
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("report: wrote %s\n", path)
}

func printTop(label string, values []float64, top int) {
	type nd struct {
		v     int
		score float64
	}
	nodes := make([]nd, len(values))
	for v, s := range values {
		nodes[v] = nd{v, s}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].score > nodes[j].score })
	if top > len(nodes) {
		top = len(nodes)
	}
	fmt.Printf("top %d nodes by %s:\n", top, label)
	for i := 0; i < top; i++ {
		fmt.Printf("  %8d  %.6g\n", nodes[i].v, nodes[i].score)
	}
}

func loadGraph(preset string, shrink int, edgelist string) (*mixen.Graph, error) {
	switch {
	case preset != "" && edgelist != "":
		return nil, fmt.Errorf("specify only one of -preset, -edgelist")
	case preset != "":
		return mixen.Dataset(preset, shrink)
	case edgelist != "":
		f, err := os.Open(edgelist)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mixen.ReadEdgeList(f, 0)
	default:
		return nil, fmt.Errorf("specify -preset or -edgelist")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mixenrun:", err)
	os.Exit(1)
}
