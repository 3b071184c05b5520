// Package core implements the Mixen engine — the paper's primary
// contribution. It composes the filtering stage (internal/filter), the 2-D
// blocked partition (internal/block), and the Scatter-Cache-Gather-Apply
// (SCGA) execution model of Section 4.3:
//
//	Pre-Phase:  seed nodes push their (constant) contributions into the
//	            static bins, once.
//	Main-Phase: iterate over the regular×regular blocked submatrix:
//	            Scatter buffers compressed source values into the dynamic
//	            bins; Cache seeds each output segment with the static-bin
//	            contributions (replacing both the zero-initialisation and
//	            the repeated seed propagation); Gather drains the bins
//	            column-by-column; Apply runs the user function per node.
//	Post-Phase: sink nodes pull once from their (final) in-neighbour values.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mixen/internal/block"
	"mixen/internal/filter"
	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// Config tunes the engine.
type Config struct {
	// Side is the block side in nodes (the paper's cache indicator c);
	// 0 picks block.DefaultSide.
	Side int
	// Threads is the worker count; 0 uses all available cores.
	Threads int
	// AutoTune selects the block side by measurement instead of the
	// DefaultSide heuristic: the constructor builds candidate partitions,
	// times a few probe Main-Phase iterations on each, and keeps the
	// fastest (Engine.Tuned is the trial table). It picks the side, so it
	// cannot be combined with a non-zero Side. Tuning cost is
	// preprocessing-only (PrepStats.TuneTime); the run hot path is
	// untouched.
	AutoTune bool
	// MaxLoadFactor caps sub-block size at this multiple of the mean
	// (paper: 2). 0 applies the default; negative disables splitting.
	MaxLoadFactor float64
	// DisableCache recomputes the seed contributions every iteration
	// instead of reusing the static bins (ablation of the Cache step).
	DisableCache bool
	// DisableCompression buffers one bin entry per edge instead of one per
	// (source, block) pair (ablation of edge compression).
	DisableCompression bool
	// DisableHubOrder keeps regular nodes in original relative order
	// without relocating hubs to the front (ablation of filtering step 2,
	// the only layout choice inside the regular range).
	DisableHubOrder bool
	// DisableActiveTracking turns off node-granularity activity tracking
	// (the bit mask §5 sets aside, refined to per-node frontiers): with
	// tracking on, Gather records which nodes changed, Scatter skips any
	// block-row whose source segment produced no value change in the
	// previous iteration — the dynamic bins still hold those sources'
	// (unchanged) messages, so Gather stays exact — and Gather itself
	// skips block-columns none of whose input sources changed. Sparse
	// iterations such as BFS skip most of the matrix once the frontier has
	// passed. Disabling this also disables the sparse Scatter and the push
	// Gather (see vprog.MinApplier).
	DisableActiveTracking bool
	// DisableSparse forces every non-quiescent block-row through the dense
	// row stream, turning off the frontier-driven sparse Scatter (the
	// always-dense baseline the frontier experiment compares against), and
	// with it the push Gather. Row-level skipping of fully quiescent rows
	// (see DisableActiveTracking) is unaffected.
	DisableSparse bool
	// SparseDensity is the frontier-density threshold of the dense/sparse
	// Scatter decision: a block-row whose changed sources cover less than
	// this fraction of the row's compressed bin entries switches to the
	// sparse frontier walk, and switches back to dense above 2× the
	// threshold (hysteresis). 0 picks DefaultSparseDensity; negative
	// disables sparse execution like DisableSparse.
	SparseDensity float64
	// Collector receives engine telemetry (phase spans, iteration counts,
	// skipped-block counters) from preprocessing and every run. Nil means
	// the zero-cost no-op collector.
	Collector obs.Collector
	// Trace records a per-iteration timeline (Scatter/Cache/Gather-Apply
	// spans, delta, active block-rows) into RunStats.Trace. Independent of
	// Collector so `-trace` works without a metrics registry.
	Trace bool
}

func (c Config) regularOrder() filter.RegularOrder {
	if c.DisableHubOrder {
		return filter.OrderOriginal
	}
	return filter.OrderHubFirst
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = sched.DefaultThreads()
	}
	if c.MaxLoadFactor == 0 {
		c.MaxLoadFactor = 2
	}
	if c.MaxLoadFactor < 0 {
		c.MaxLoadFactor = 0
	}
	if c.SparseDensity == 0 {
		c.SparseDensity = DefaultSparseDensity
	}
	return c
}

// DefaultSparseDensity is the default Config.SparseDensity: a block-row
// goes sparse when its frontier covers less than 1/20 of the row's bin
// entries. Ligra-style thresholds trade redundant dense streaming against
// the sparse walk's indirection; the entry-index walk touches ~3× the
// bytes per entry of the dense stream, so 0.05 leaves a wide margin while
// still engaging well before rows fully quiesce.
const DefaultSparseDensity = 0.05

// PrepStats records preprocessing cost (Table 4).
type PrepStats struct {
	FilterTime    time.Duration
	PartitionTime time.Duration
	// TuneTime is the cost of the measured block-side auto-tuner
	// (Config.AutoTune); zero when tuning did not run.
	TuneTime time.Duration
}

// Total returns the end-to-end preprocessing time.
func (p PrepStats) Total() time.Duration {
	return p.FilterTime + p.TuneTime + p.PartitionTime
}

// Engine is a preprocessed Mixen instance, reusable across algorithm runs
// on the same graph.
//
// Concurrency contract: after New returns, the engine — configuration,
// filtered graph, partition — is read-only. Run, RunWithStats and
// RunInWorkspace (on distinct workspaces) are safe to call from any number
// of goroutines on one engine; every piece of mutable run state lives in a
// per-run Workspace. Programs must be read-only during Run (see
// vprog.Program); the same Program value may serve concurrent runs if its
// implementation honours that contract. SetCollector may race with
// in-flight runs (the swap is atomic; a run uses the collector it observed
// at start).
type Engine struct {
	cfg  Config
	F    *filter.Filtered
	P    *block.Partition
	Prep PrepStats

	// prebuilt marks an engine assembled from an already-built partition
	// (NewFromPrebuilt over a .mixp mapping): Prep is zero — the whole
	// point — and F.G is typically nil.
	prebuilt bool

	// Tuned is the measured auto-tuner's trial table (one row per
	// candidate side, in probing order; the Chosen row is P.Side) when
	// Config.AutoTune selected the block side; nil when tuning did not run.
	Tuned []SideTrial

	// SkippedBlocks counts sub-blocks (always sub-blocks, the unit of
	// block.Partition.Rows — never block-rows) whose Scatter was skipped
	// by the activity mask during the most recent Run
	// (observability/testing). Reset at the start of every run; safe to
	// read concurrently (e.g. from a metrics poller) while a run is in
	// flight. With multiple concurrent runs the value interleaves their
	// counts — use RunStats.SkippedBlocks for a per-run exact figure.
	SkippedBlocks atomic.Int64

	// state bundles the collector with its cached instrument handles so a
	// SetCollector racing with runs swaps both atomically.
	state atomic.Pointer[engineState]

	// wsPools holds one *sync.Pool of Workspaces per property width, so
	// steady-state serving reuses run state instead of reallocating it.
	wsPools sync.Map

	// runOff is the partition's per-entry run offsets into its Dst arena
	// (block.Partition.RunOffsets), derived on the first run that can
	// gather by push; runOffErr is that derivation's error.
	runOffOnce sync.Once
	runOff     []uint32
	runOffErr  error
}

// runOffsets returns the partition's run offsets, deriving them once.
func (e *Engine) runOffsets() ([]uint32, error) {
	e.runOffOnce.Do(func() { e.runOff, e.runOffErr = e.P.RunOffsets() })
	return e.runOff, e.runOffErr
}

type engineState struct {
	col obs.Collector
	m   engineMetrics
}

// engineMetrics caches the collector's instrument handles so the hot loop
// never performs name lookups. All handles are nil under the no-op
// collector, making every update a single branch.
type engineMetrics struct {
	runs            *obs.Counter
	cancelledRuns   *obs.Counter
	deadlineRuns    *obs.Counter
	iterations      *obs.Counter
	skippedBlocks   *obs.Counter
	denseRows       *obs.Counter
	sparseRows      *obs.Counter
	scatterEntries  *obs.Counter
	gatherEdges     *obs.Counter
	activeRows      *obs.Gauge
	frontierDensity *obs.Gauge
	preNs           *obs.Histogram
	mainNs          *obs.Histogram
	postNs          *obs.Histogram
	scatterNs       *obs.Histogram
	cacheNs         *obs.Histogram
	gatherNs        *obs.Histogram
	iterNs          *obs.Histogram
}

func newEngineMetrics(c obs.Collector) engineMetrics {
	return engineMetrics{
		runs:            c.Counter("core.runs"),
		cancelledRuns:   c.Counter("core.cancelled_runs"),
		deadlineRuns:    c.Counter("core.deadline_runs"),
		iterations:      c.Counter("core.iterations"),
		skippedBlocks:   c.Counter("core.skipped_blocks"),
		denseRows:       c.Counter("core.dense_rows"),
		sparseRows:      c.Counter("core.sparse_rows"),
		scatterEntries:  c.Counter("core.scatter_entries"),
		gatherEdges:     c.Counter("core.gather_edges"),
		activeRows:      c.Gauge("core.active_block_rows"),
		frontierDensity: c.Gauge("core.frontier_density_permille"),
		preNs:           c.Histogram("core.pre_ns"),
		mainNs:          c.Histogram("core.main_ns"),
		postNs:          c.Histogram("core.post_ns"),
		scatterNs:       c.Histogram("core.scatter_ns"),
		cacheNs:         c.Histogram("core.cache_ns"),
		gatherNs:        c.Histogram("core.gather_apply_ns"),
		iterNs:          c.Histogram("core.iteration_ns"),
	}
}

// SetCollector attaches (or replaces) the telemetry collector for future
// runs. Implements obs.Instrumentable.
func (e *Engine) SetCollector(c obs.Collector) {
	col := obs.Default(c)
	e.state.Store(&engineState{col: col, m: newEngineMetrics(col)})
}

// Collector returns the attached collector (never nil).
func (e *Engine) Collector() obs.Collector { return e.state.Load().col }

// New preprocesses g: filtering/relabeling (hub-first unless
// Config.DisableHubOrder), the optional measured block-side auto-tuning
// (Config.AutoTune), and 2-D blocking of the regular submatrix.
func New(g *graph.Graph, cfg Config) (*Engine, error) {
	switch {
	case cfg.Side < 0:
		return nil, fmt.Errorf("core: side %d is negative (0 picks block.DefaultSide)", cfg.Side)
	case cfg.AutoTune && cfg.Side != 0:
		return nil, fmt.Errorf("core: AutoTune picks the block side; it cannot be combined with side %d", cfg.Side)
	}
	cfg = cfg.withDefaults()
	col := obs.Default(cfg.Collector)
	t0 := time.Now()
	f := filter.FilterWithOptions(g, filter.Options{Order: cfg.regularOrder(), Collector: col})
	t1 := time.Now()

	// Measured auto-tuning: probe candidate sides and adopt the fastest.
	// The trial that built the winning partition is reused below so tuning
	// never builds the final partition twice.
	var (
		tuned    []SideTrial
		tunedP   *block.Partition
		tuneTime time.Duration
	)
	if cfg.AutoTune {
		var err error
		tuned, tunedP, err = autotuneSide(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: autotune: %w", err)
		}
		if tunedP != nil {
			cfg.Side = tunedP.Side
		}
		tuneTime = time.Since(t1)
		col.Histogram("core.tune_ns").Observe(int64(tuneTime))
	}

	t2 := time.Now()
	bcfg := block.Config{
		Side:               cfg.Side,
		MaxLoadFactor:      cfg.MaxLoadFactor,
		DisableCompression: cfg.DisableCompression,
		Threads:            cfg.Threads,
		Collector:          col,
	}
	p := tunedP
	if p == nil {
		var err error
		p, err = block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, bcfg)
		if err != nil {
			return nil, fmt.Errorf("core: partition: %w", err)
		}
	}
	t3 := time.Now()
	e := &Engine{
		cfg:   cfg,
		F:     f,
		P:     p,
		Tuned: tuned,
		Prep: PrepStats{
			FilterTime:    t1.Sub(t0),
			TuneTime:      tuneTime,
			PartitionTime: t3.Sub(t2),
		},
	}
	e.SetCollector(col)
	col.Histogram("core.filter_ns").Observe(int64(e.Prep.FilterTime))
	col.Histogram("core.partition_ns").Observe(int64(e.Prep.PartitionTime))
	return e, nil
}

// Graph returns the original graph, or nil for an engine assembled from a
// prebuilt partition (the .mixp file does not carry the raw graph).
func (e *Engine) Graph() *graph.Graph { return e.F.G }

// Name implements vprog.Engine.
func (e *Engine) Name() string { return "mixen" }

// TrafficPerIteration models the main-phase memory traffic per iteration on
// the actual partition (Equation 1, 4r+4m̃, refined by edge compression),
// for scalar (width-1) properties.
func (e *Engine) TrafficPerIteration() int64 {
	return e.P.TrafficPerIteration(1, !e.cfg.DisableCache)
}

// RandomAccessesPerIteration counts block switches per iteration
// (Equation 2, O((αn/c)²)).
func (e *Engine) RandomAccessesPerIteration() int64 {
	return e.P.RandomAccessesPerIteration()
}

// RunStats breaks a run down by phase. The three phase times cover the
// whole run, so Total() is the run's wall time up to clock reads: PreTime
// spans program Init over all nodes plus the seed push into the static
// bins, MainTime the iterations, PostTime the sink pull plus the
// translation of the result to original id order. The request-trace
// pre_phase/post_phase spans and the core.pre_ns/post_ns histograms follow
// the same definition.
type RunStats struct {
	PreTime  time.Duration
	MainTime time.Duration
	PostTime time.Duration
	// MainIterations equals Result.Iterations.
	MainIterations int
	// PushIterations counts the iterations whose Gather ran by push: only
	// the changed entries' runs folded into the previous values, and only
	// the nodes they lowered applied (see vprog.MinApplier).
	PushIterations int
	// SkippedBlocks is the run's total count of sub-blocks whose Scatter
	// was skipped outright because their block-row had no changed source.
	// The unit is sub-blocks (block.Partition.Rows entries), never
	// block-rows, in every path — traced and untraced alike.
	SkippedBlocks int64
	// ScatterEntries totals the dynamic-bin entries (re)written by Scatter
	// across iterations: a dense-mode row contributes all its entries, a
	// sparse-mode row only its frontier's, a skipped row none. The
	// always-dense figure is MainIterations × Partition.CompressedEntries.
	ScatterEntries int64
	// GatherEdges totals the edges Gather replayed across iterations
	// (skipped block-columns contribute nothing; a push iteration counts
	// the edges it pushed). The always-dense figure is MainIterations ×
	// Partition.Nnz.
	GatherEdges int64
	// DenseRowIterations / SparseRowIterations count per-iteration
	// block-row mode decisions: one dense-mode row for one iteration adds
	// one to DenseRowIterations.
	DenseRowIterations  int64
	SparseRowIterations int64
	// Trace is the per-iteration timeline, populated when Config.Trace is
	// set (nil otherwise).
	Trace []obs.IterationTrace
}

// Total returns the end-to-end execution time across the three phases.
func (s RunStats) Total() time.Duration { return s.PreTime + s.MainTime + s.PostTime }

// Run executes prog to convergence (or prog.MaxIter) and returns the final
// values in original id order. Safe for concurrent callers on one engine.
// Every Run* entry first calls prog's Check when it implements
// vprog.Checker and returns that error without running.
func (e *Engine) Run(prog vprog.Program) (*vprog.Result, error) {
	res, _, err := e.RunWithStats(prog)
	return res, err
}

// RunCtx is Run with cooperative cancellation: the run observes ctx at
// iteration and phase boundaries and returns ctx.Err() once it is
// cancelled or past its deadline. Implements vprog.ContextRunner.
func (e *Engine) RunCtx(ctx context.Context, prog vprog.Program) (*vprog.Result, error) {
	res, _, err := e.RunWithStatsCtx(ctx, prog)
	return res, err
}

// RunWithStats is Run plus per-phase timing. Safe for concurrent callers
// on one engine: each invocation borrows a workspace from the engine's
// width-keyed pool and returns values copied into a fresh slice.
func (e *Engine) RunWithStats(prog vprog.Program) (*vprog.Result, RunStats, error) {
	return e.RunWithStatsCtx(context.Background(), prog)
}

// RunWithStatsCtx is RunWithStats with cooperative cancellation (see
// RunCtx). On cancellation it returns a nil Result, the partial RunStats
// accumulated so far, and ctx.Err(); the borrowed workspace goes back to
// the pool in a reusable state either way (every run fully re-initialises
// the per-run state it reads).
func (e *Engine) RunWithStatsCtx(ctx context.Context, prog vprog.Program) (*vprog.Result, RunStats, error) {
	w := prog.Width()
	if w <= 0 {
		return nil, RunStats{}, fmt.Errorf("core: program width %d must be positive", w)
	}
	pool := e.workspacePool(w)
	ws := pool.Get().(*Workspace)
	defer pool.Put(ws)
	// The result must survive the workspace's return to the pool, so it is
	// written into a fresh slice rather than the workspace's out buffer.
	out := make([]float64, e.F.N()*w)
	return e.runInWorkspace(ctx, prog, ws, out)
}

// RunInWorkspace executes prog inside a caller-owned workspace obtained
// from NewWorkspace, for zero-allocation steady-state serving. The
// returned Result.Values ALIASES the workspace's internal buffer: it is
// valid until the next RunInWorkspace call on the same workspace (copy it
// out to keep it). A workspace serves one run at a time; concurrent runs
// need one workspace each.
func (e *Engine) RunInWorkspace(prog vprog.Program, ws *Workspace) (*vprog.Result, RunStats, error) {
	return e.RunInWorkspaceCtx(context.Background(), prog, ws)
}

// RunInWorkspaceCtx is RunInWorkspace with cooperative cancellation (see
// RunCtx). A context that cannot be cancelled (context.Background()) adds
// nothing to the hot path, preserving the zero-allocation steady state; a
// cancellable one costs a single AfterFunc registration up front and one
// atomic flag load per main-phase iteration. After a cancelled run the
// workspace remains valid for the next RunInWorkspaceCtx call — the next
// run re-initialises everything it reads.
func (e *Engine) RunInWorkspaceCtx(ctx context.Context, prog vprog.Program, ws *Workspace) (*vprog.Result, RunStats, error) {
	if ws == nil || ws.eng != e {
		return nil, RunStats{}, fmt.Errorf("core: workspace does not belong to this engine")
	}
	if w := prog.Width(); w != ws.width {
		return nil, RunStats{}, fmt.Errorf("core: program width %d does not match workspace width %d", w, ws.width)
	}
	return e.runInWorkspace(ctx, prog, ws, ws.out)
}

// RunToCtx executes prog inside a caller-owned workspace like
// RunInWorkspaceCtx, but writes the final values into the caller's out
// slice (len n·width, original id order) instead of the workspace's
// internal buffer. Result.Values aliases out, which survives subsequent
// runs on the same workspace — the zero-copy path for serving layers
// that keep the computed vector (e.g. a result cache) while reusing one
// workspace across runs.
func (e *Engine) RunToCtx(ctx context.Context, prog vprog.Program, ws *Workspace, out []float64) (*vprog.Result, RunStats, error) {
	if ws == nil || ws.eng != e {
		return nil, RunStats{}, fmt.Errorf("core: workspace does not belong to this engine")
	}
	w := prog.Width()
	if w != ws.width {
		return nil, RunStats{}, fmt.Errorf("core: program width %d does not match workspace width %d", w, ws.width)
	}
	if want := e.F.N() * w; len(out) != want {
		return nil, RunStats{}, fmt.Errorf("core: out length %d, want n*width = %d", len(out), want)
	}
	return e.runInWorkspace(ctx, prog, ws, out)
}

// ctxDone reports whether a ctx.Done() channel is closed, without
// blocking. cancel closes the channel synchronously in the cancelling
// goroutine, so this is the deterministic signal at iteration boundaries;
// the AfterFunc-armed stop flag may lag behind it under full CPU load.
func ctxDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// cancelled books one cancelled/deadline-expired run and returns err.
func (m *engineMetrics) cancelled(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		m.deadlineRuns.Inc()
	} else {
		m.cancelledRuns.Inc()
	}
	return err
}

// runInWorkspace is the SCGA run loop. All mutable state lives in ws and
// out; the engine and partition are only read, which is what makes
// concurrent runs on one engine safe.
//
// Cancellation is cooperative: a cancellable ctx arms the workspace's stop
// flag through context.AfterFunc, the coordinator checks the flag once per
// main-phase iteration and at phase boundaries, and the phase loops
// themselves abandon unclaimed chunks once the flag is set
// (sched.ForRangeStop) so a cancel mid-iteration does not wait for a full
// sweep over a large graph. On cancellation the run returns ctx.Err() with
// the partial RunStats; the workspace stays reusable because the next run
// re-initialises x/y (initBody), the static bins, the frontier state and —
// via the forced all-dense first iteration — every dynamic bin entry.
func (e *Engine) runInWorkspace(ctx context.Context, prog vprog.Program, ws *Workspace, out []float64) (*vprog.Result, RunStats, error) {
	w := prog.Width()
	if w <= 0 {
		return nil, RunStats{}, fmt.Errorf("core: program width %d must be positive", w)
	}
	if err := vprog.Check(prog); err != nil {
		return nil, RunStats{}, fmt.Errorf("core: invalid program: %w", err)
	}
	n := e.F.N()
	st := e.state.Load()
	var stats RunStats

	// Request-scoped traces riding on ctx (one per fused batch member).
	// One Value lookup; nil — and therefore free past this line — for
	// every untraced run, preserving the zero-allocation steady state.
	reqTraces := obs.ContextTraces(ctx)

	// Bind this run into the workspace's prebuilt execution context.
	rc := &ws.rc
	rc.stopPtr = nil
	var done <-chan struct{}
	if done = ctx.Done(); done != nil {
		if err := ctx.Err(); err != nil {
			return nil, stats, st.m.cancelled(err)
		}
		// The stop flag lets phase loops abandon unclaimed chunks
		// mid-iteration; AfterFunc arms it from a separate goroutine, which
		// may lag when every P is busy in the phase loops, so the
		// coordinator additionally polls the done channel (closed
		// synchronously by cancel) at iteration boundaries. The flag is per
		// run, not per workspace: a lagging AfterFunc of an earlier,
		// cancelled run on this workspace must not stop this one.
		stop := new(atomic.Bool)
		rc.stopPtr = stop
		unregister := context.AfterFunc(ctx, func() { stop.Store(true) })
		defer unregister()
	}
	rc.prog = prog
	rc.ring = prog.Ring()
	rc.threads = e.cfg.Threads
	rc.x, rc.y = ws.x, ws.y
	rc.out = out
	rc.skipped.Store(0)
	rc.track = !e.cfg.DisableActiveTracking
	rc.canSparse = rc.track && !e.cfg.DisableSparse &&
		e.cfg.SparseDensity > 0 && e.P.SrcEntryIdx != nil
	rc.sparseEnter = e.cfg.SparseDensity
	rc.sparseExit = 2 * e.cfg.SparseDensity
	// Push Gather: a width-1 program that declares Apply = min(prev, sum),
	// on an engine whose frontier and sparse Scatter are on. The run
	// offsets it walks are derived once per engine, here, on the first
	// such run.
	rc.canPush = false
	if rc.canSparse && w == 1 && vprog.PushesMin(prog) {
		off, err := e.runOffsets()
		if err != nil {
			return nil, stats, fmt.Errorf("core: partition: %w", err)
		}
		if off != nil {
			rc.runOff = off
			rc.canPush = true
			rc.ensurePushState()
		}
	}
	// Pooled workspaces carry the previous run's frontier state; reset the
	// hysteresis and worklists (the first iteration forces all-dense
	// regardless, so this is hygiene plus deterministic mode decisions).
	for i := range rc.rowSticky {
		rc.rowSticky[i] = modeDense
		rc.workLen[i] = 0
		rc.workEnt[i] = 0
	}

	// Pre-Phase: program Init, then the seed contributions accumulated into
	// the static bins. x and y are full property arrays in NEW id space;
	// both carry the seed segment (constant) so pointer swapping stays valid.
	t0 := time.Now()
	sched.ForRange(n, rc.threads, 1024, rc.initBody)
	copy(rc.y, rc.x)
	st.m.runs.Inc()
	rc.pushSeeds()
	stats.PreTime = time.Since(t0)
	st.m.preNs.Observe(int64(stats.PreTime))
	for _, t := range reqTraces {
		t.AddSpanIter(obs.SpanPrePhase, 0, t0, t0.Add(stats.PreTime))
	}

	// Main-Phase.
	t1 := time.Now()
	iter := 0
	delta := math.Inf(1)
	e.SkippedBlocks.Store(0)
	var lastSkipped int64
	// Per-iteration tracing is on when explicitly requested, when a
	// recording collector is attached, or when the run carries
	// request-scoped traces; the timeline slice itself is only kept when
	// Config.Trace asks for it.
	traced := e.cfg.Trace || st.col.Enabled() || len(reqTraces) > 0
	rc.timed = traced
	for iter < prog.MaxIter() {
		// Iteration-boundary cancellation check: one predictable branch,
		// one atomic load and one non-blocking channel poll on cancellable
		// runs, nothing otherwise.
		if rc.stopPtr != nil && (rc.stopPtr.Load() || ctxDone(done)) {
			stats.MainTime = time.Since(t1)
			stats.MainIterations = iter
			stats.SkippedBlocks = rc.skipped.Load()
			return nil, stats, st.m.cancelled(ctx.Err())
		}
		rc.first = iter == 0
		if e.cfg.DisableCache {
			// Ablation: redo the seed propagation every iteration.
			rc.pushSeeds()
		}
		d := rc.iterateMain()
		ge := rc.drainedEdges()
		stats.ScatterEntries += rc.scatterEntries
		stats.GatherEdges += ge
		stats.DenseRowIterations += int64(rc.denseRows)
		stats.SparseRowIterations += int64(rc.sparseRows)
		if rc.pushing {
			stats.PushIterations++
		}
		// Per-iteration skip accounting: rc.skipped is cumulative over the
		// run, the engine counter mirrors it for live observation.
		cur := rc.skipped.Load()
		skipped := cur - lastSkipped
		e.SkippedBlocks.Add(skipped)
		lastSkipped = cur
		rc.x, rc.y = rc.y, rc.x
		iter++
		delta = d
		if traced {
			m := &rc.marks
			it := obs.IterationTrace{
				Iter:            iter,
				ScatterNs:       m[1].Sub(m[0]).Nanoseconds(),
				CacheNs:         m[2].Sub(m[1]).Nanoseconds(),
				GatherNs:        m[3].Sub(m[2]).Nanoseconds(),
				Delta:           d,
				ActiveBlockRows: e.P.B - rc.emptyRows,
				TotalBlockRows:  e.P.B,
				SkippedBlocks:   skipped,
				FrontierNodes:   rc.frontierNodes,
				FrontierEntries: rc.frontierEntries,
				DenseRows:       rc.denseRows,
				SparseRows:      rc.sparseRows,
				Push:            rc.pushing,
				ScatterEntries:  rc.scatterEntries,
				GatherEdges:     ge,
			}
			st.m.scatterNs.Observe(it.ScatterNs)
			st.m.cacheNs.Observe(it.CacheNs)
			st.m.gatherNs.Observe(it.GatherNs)
			// One iteration span per request trace, covering
			// Scatter+Cache+Gather (the phase marks — no extra clock
			// reads on the traced path).
			for _, t := range reqTraces {
				t.AddSpanIter(obs.SpanIteration, iter, m[0], m[3])
			}
			st.m.iterations.Inc()
			st.m.activeRows.Set(int64(it.ActiveBlockRows))
			st.m.denseRows.Add(int64(rc.denseRows))
			st.m.sparseRows.Add(int64(rc.sparseRows))
			st.m.scatterEntries.Add(rc.scatterEntries)
			st.m.gatherEdges.Add(ge)
			if ce := e.P.CompressedEntries; ce > 0 {
				st.m.frontierDensity.Set(1000 * rc.frontierEntries / ce)
			}
			st.m.iterNs.Observe(it.TotalNs())
			if e.cfg.Trace {
				stats.Trace = append(stats.Trace, it)
			}
		}
		if prog.Converged(delta, iter) {
			break
		}
	}
	stats.MainTime = time.Since(t1)
	stats.MainIterations = iter
	stats.SkippedBlocks = rc.skipped.Load()
	st.m.mainNs.Observe(int64(stats.MainTime))
	st.m.skippedBlocks.Add(stats.SkippedBlocks)

	// Phase-boundary cancellation check: a cancel that fired during the
	// final iteration may have torn it mid-phase (abandoned chunks), so
	// the run must not publish a result built from it.
	if rc.stopPtr != nil && (rc.stopPtr.Load() || ctxDone(done)) {
		return nil, stats, st.m.cancelled(ctx.Err())
	}

	// Post-Phase: sinks pull once from the final source values. Stateful
	// programs (vprog.Batch) are told the main loop is over so their Apply
	// treats the deferred one-shot evaluation as such.
	t2 := time.Now()
	if pp, ok := prog.(vprog.PostPhaser); ok {
		pp.EnterPostPhase()
	}
	sched.ForRange(e.F.NumSink, rc.threads, 64, rc.sinkBody)
	// Translate back to original id order.
	sched.ForRange(n, rc.threads, 1024, rc.translateBody)
	stats.PostTime = time.Since(t2)
	st.m.postNs.Observe(int64(stats.PostTime))
	for _, t := range reqTraces {
		t.AddSpanIter(obs.SpanPostPhase, 0, t2, t2.Add(stats.PostTime))
	}
	return &vprog.Result{Values: out, Iterations: iter, Delta: delta}, stats, nil
}

// EffectiveConfig reports the configuration the engine actually runs with
// (after defaulting), for run-report headers: what happened, not what was
// asked for.
func (e *Engine) EffectiveConfig() map[string]string {
	cfg := map[string]string{
		"side":        strconv.Itoa(e.P.Side),
		"threads":     strconv.Itoa(e.cfg.Threads),
		"load_factor": strconv.FormatFloat(e.cfg.MaxLoadFactor, 'g', -1, 64),
	}
	if e.cfg.DisableCache {
		cfg["cache"] = "off"
	}
	if e.cfg.DisableCompression {
		cfg["compression"] = "off"
	}
	if e.cfg.DisableActiveTracking {
		cfg["active_tracking"] = "off"
	}
	if e.cfg.DisableSparse || e.cfg.SparseDensity < 0 || e.cfg.DisableActiveTracking {
		cfg["sparse"] = "off"
	} else if e.cfg.SparseDensity != DefaultSparseDensity {
		cfg["sparse_density"] = strconv.FormatFloat(e.cfg.SparseDensity, 'g', -1, 64)
	}
	if e.cfg.DisableHubOrder {
		cfg["order"] = "original"
	} else {
		cfg["order"] = "hub-first"
	}
	if len(e.Tuned) > 0 {
		cfg["autotune"] = "measured"
	}
	if e.prebuilt {
		cfg["partition"] = "prebuilt"
	}
	return cfg
}

// BuildReport assembles the JSON-serializable run report for a completed
// RunWithStats invocation: effective config, prep + phase breakdown, the
// per-iteration trace (when enabled), and a metrics snapshot when the
// attached collector records one.
func (e *Engine) BuildReport(algorithm, graphName string, res *vprog.Result, stats RunStats) *obs.RunReport {
	gi := obs.GraphInfo{Name: graphName, Nodes: e.F.N()}
	if g := e.F.G; g != nil {
		gi.Edges = g.NumEdges()
	}
	r := &obs.RunReport{
		Engine:     e.Name(),
		Algorithm:  algorithm,
		Graph:      gi,
		Config:     e.EffectiveConfig(),
		Iterations: stats.MainIterations,
		Trace:      stats.Trace,
	}
	if res != nil {
		r.Delta = res.Delta
	}
	r.AddPhase("filter", e.Prep.FilterTime)
	r.AddPhase("partition", e.Prep.PartitionTime)
	r.AddPhase("pre", stats.PreTime)
	r.AddPhase("main", stats.MainTime)
	r.AddPhase("post", stats.PostTime)
	if sn, ok := e.Collector().(interface{ Snapshot() obs.Snapshot }); ok {
		s := sn.Snapshot()
		r.Metrics = &s
	}
	return r
}

// fillIdentity resets a bin array to the ring's ⊕-identity.
func fillIdentity(a []float64, ring vprog.Ring) {
	if ring == vprog.Min {
		inf := math.Inf(1)
		for i := range a {
			a[i] = inf
		}
		return
	}
	for i := range a {
		a[i] = 0
	}
}

// pushSeeds resets the static bins and accumulates send(x_seed) into them
// over the seed CSR. Seeds are partitioned statically across workers with
// per-worker partial bins to avoid write contention, then reduced in worker
// order (identity-valued partials collapse under either ring). The
// partials live in the workspace, sized on the first multi-thread run.
func (rc *runCtx) pushSeeds() {
	f := rc.e.F
	s := f.NumSeed
	fillIdentity(rc.sta, rc.ring)
	if s == 0 || f.NumRegular == 0 {
		return
	}
	t := rc.seedWorkers()
	if t <= 1 {
		rc.e.pushSeedRangeInto(rc.x, rc.scale, rc.sta, rc.ring, rc.w, 0, s)
		return
	}
	if need := t * len(rc.sta); len(rc.seedParts) < need {
		rc.seedParts = make([]float64, need)
	}
	sched.ForRange(t, t, 1, rc.seedPushBody)
	sched.ForRange(len(rc.sta), t, 4096, rc.seedReduceBody)
}

// seedWorkers is the number of workers (and partial bins) pushSeeds uses.
func (rc *runCtx) seedWorkers() int { return min(rc.threads, rc.e.F.NumSeed) }

// buildEdgePhaseBodies constructs the prebuilt Pre-/Post-Phase loop bodies
// (see buildBodies for why they are built once and capture only rc).
func (rc *runCtx) buildEdgePhaseBodies() {
	// Worker t pushes seeds [t·s/T, (t+1)·s/T) into its own partial.
	rc.seedPushBody = func(lo, hi int) {
		s, n, workers := rc.e.F.NumSeed, len(rc.sta), rc.seedWorkers()
		for t := lo; t < hi; t++ {
			part := rc.seedParts[t*n : (t+1)*n]
			fillIdentity(part, rc.ring)
			rc.e.pushSeedRangeInto(rc.x, rc.scale, part, rc.ring, rc.w, t*s/workers, (t+1)*s/workers)
		}
	}
	rc.seedReduceBody = func(lo, hi int) {
		n, workers := len(rc.sta), rc.seedWorkers()
		for i := lo; i < hi; i++ {
			acc := rc.sta[i]
			for t := 0; t < workers; t++ {
				acc = rc.ring.Combine(acc, rc.seedParts[t*n+i])
			}
			rc.sta[i] = acc
		}
	}
	// Post-Phase: each sink's value, once, from the final source values via
	// the sink CSC. The sink's own (by now unused) y slot is its accumulator.
	rc.sinkBody = func(lo, hi int) {
		f := rc.e.F
		x, scale, w, ring := rc.x, rc.scale, rc.w, rc.ring
		base := f.SinkBound()
		for i := lo; i < hi; i++ {
			v := base + i
			acc := rc.y[v*w : v*w+w]
			fillIdentity(acc, ring)
			for _, u := range f.SinkIdx[f.SinkPtr[i]:f.SinkPtr[i+1]] {
				sc := scale[u]
				ub := int(u) * w
				if ring == vprog.Sum {
					for l := 0; l < w; l++ {
						acc[l] += float64(x[ub+l] * sc)
					}
				} else {
					for l := 0; l < w; l++ {
						s := x[ub+l] + sc
						if s < acc[l] {
							acc[l] = s
						}
					}
				}
			}
			rc.prog.Apply(uint32(f.OldID[v]), acc, x[v*w:v*w+w], x[v*w:v*w+w])
		}
	}
}

func (e *Engine) pushSeedRangeInto(x, scale, dst []float64, ring vprog.Ring, w, lo, hi int) {
	f := e.F
	base := f.NumRegular
	for i := lo; i < hi; i++ {
		u := base + i
		row := f.SeedIdx[f.SeedPtr[i]:f.SeedPtr[i+1]]
		if len(row) == 0 {
			continue
		}
		sc := scale[u]
		if ring == vprog.Sum {
			for l := 0; l < w; l++ {
				v := float64(x[u*w+l] * sc)
				for _, d := range row {
					dst[int(d)*w+l] += v
				}
			}
		} else {
			for l := 0; l < w; l++ {
				v := x[u*w+l] + sc
				for _, d := range row {
					di := int(d)*w + l
					if v < dst[di] {
						dst[di] = v
					}
				}
			}
		}
	}
}
