package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mixen/internal/algo"
	"mixen/internal/obs"
	"mixen/internal/vprog"
)

// TestBatcherMaxWaitFlushesSingleRequest: a lone submission does not wait
// for companions, and not for MaxWait either — on an idle Batcher it is
// dispatched at once (an hour-long MaxWait would otherwise hang the test),
// booked as an idle flush, and run unfused: batch size 1, the standalone
// run's result bit for bit.
func TestBatcherMaxWaitFlushesSingleRequest(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(algo.NewPersonalizedPageRank(g, 3, 0.85, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Hour})
	defer b.Close()
	fut, err := b.Submit(algo.NewPersonalizedPageRank(g, 3, 0.85, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if fut.BatchSize() != 1 {
		t.Fatalf("batch size %d, want 1", fut.BatchSize())
	}
	if !sameValues(res.Values, want.Values) || res.Iterations != want.Iterations || res.Delta != want.Delta {
		t.Fatal("lone query differs from standalone run")
	}
	wantFlushes(t, reg, map[string]int64{"idle": 1})
}

// wantFlushes checks the four flush-cause counters (causes not named must
// be zero) and that batch.flushes is their sum.
func wantFlushes(t *testing.T, reg *obs.Registry, want map[string]int64) {
	t.Helper()
	s := reg.Snapshot()
	var sum int64
	for _, cause := range []string{"idle", "full", "deadline", "drain"} {
		got := s.Counters["batch.flushes_"+cause]
		if got != want[cause] {
			t.Errorf("batch.flushes_%s = %d, want %d", cause, got, want[cause])
		}
		sum += got
	}
	if got := s.Counters["batch.flushes"]; got != sum {
		t.Errorf("batch.flushes = %d, want the sum of the causes %d", got, sum)
	}
}

// TestBatcherConcurrentSubmits races many Submit callers against full and
// deadline flushes (the -race test for the queue/timer handoff). Every
// future must resolve to its query's standalone result regardless of which
// batch it landed in.
func TestBatcherConcurrentSubmits(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // force real parallelism even on a 1-core host
	defer runtime.GOMAXPROCS(old)

	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const nq = 24
	sources := make([]uint32, nq)
	refs := make([][]float64, nq)
	for i := range sources {
		sources[i] = uint32((i * 37) % g.NumNodes())
		res, err := e.Run(algo.NewPersonalizedPageRank(g, sources[i], 0.85, 0, 8))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.Values
	}

	// MaxBatch 4 with a short deadline: some flushes fill up, others fire
	// on the timer, and Submits race both.
	b := NewBatcher(e, BatcherConfig{MaxBatch: 4, MaxWait: 100 * time.Microsecond})
	defer b.Close()

	var wg sync.WaitGroup
	errs := make([]error, nq)
	bad := make([]bool, nq)
	for i := 0; i < nq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fut, err := b.Submit(algo.NewPersonalizedPageRank(g, sources[i], 0.85, 0, 8))
			if err != nil {
				errs[i] = err
				return
			}
			res, err := fut.Wait()
			if err != nil {
				errs[i] = err
				return
			}
			if !sameValues(res.Values, refs[i]) {
				bad[i] = true
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < nq; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if bad[i] {
			t.Errorf("query %d: batched result differs from standalone run", i)
		}
	}
}

// TestBatcherRejectsMixedWidths: a Batcher serves one per-query width; a
// program with a different width must be rejected with a clear error, not
// silently queued into an incompatible batch.
func TestBatcherRejectsMixedWidths(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{Width: 1, MaxWait: time.Second})
	defer b.Close()
	_, err = b.Submit(algo.NewCF(g, 4, 3)) // width-4 program into a width-1 batcher
	if err == nil || !strings.Contains(err.Error(), "mixed widths") {
		t.Fatalf("want mixed-width rejection, got %v", err)
	}
	if _, err := b.Submit(nil); err == nil {
		t.Fatal("nil program must be rejected")
	}
}

// TestBatcherClosedRejectsSubmit: Close drains pending queries, completes
// their futures, and rejects later submissions.
func TestBatcherClosedRejectsSubmit(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Minute})
	fut, err := b.Submit(algo.NewPersonalizedPageRank(g, 1, 0.85, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("pending future must complete on Close: %v", err)
	}
	if _, err := b.Submit(algo.NewPersonalizedPageRank(g, 2, 0.85, 0, 5)); err == nil {
		t.Fatal("submit after Close must fail")
	}
}

// TestBatcherImmediateFlushMode: MaxWait <= 0 flushes each submission
// without waiting (batching only what was already queued).
func TestBatcherImmediateFlushMode(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: -1})
	defer b.Close()
	fut, err := b.Submit(algo.NewPersonalizedPageRank(g, 0, 0.85, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if fut.BatchSize() != 1 {
		t.Fatalf("immediate mode batch size %d, want 1", fut.BatchSize())
	}
}

// TestBatcherRecordsMetrics: the serving counters flow through the
// engine's collector — query/flush counts, the size histogram, and the
// fused vs serial-equivalent traffic model (fused must not exceed serial;
// that gap is the whole point of batching).
func TestBatcherRecordsMetrics(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 4, MaxWait: time.Second})
	defer b.Close()
	const k = 4
	progs := make([]vprog.Program, k)
	for i := range progs {
		progs[i] = algo.NewPersonalizedPageRank(g, uint32(i), 0.85, 0, 6)
	}
	futs, err := b.SubmitAllCtx(context.Background(), progs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["batch.queries"]; got != k {
		t.Errorf("batch.queries = %d, want %d", got, k)
	}
	wantFlushes(t, reg, map[string]int64{"full": 1})
	if got := s.Gauges["batch.inflight"]; got != 0 {
		t.Errorf("batch.inflight = %d after every future resolved, want 0", got)
	}
	if got := s.Histograms["batch.size"].Sum; got != k {
		t.Errorf("batch.size sum = %d, want %d", got, k)
	}
	if got := s.Histograms["batch.queue_wait_ns"].Count; got != k {
		t.Errorf("batch.queue_wait_ns count = %d, want %d", got, k)
	}
	fused := s.Counters["batch.fused_traffic_bytes"]
	serial := s.Counters["batch.serial_equiv_traffic_bytes"]
	if fused <= 0 || serial <= 0 {
		t.Fatalf("traffic counters must be positive: fused=%d serial=%d", fused, serial)
	}
	if fused >= serial {
		t.Errorf("fused traffic %d should undercut the serial equivalent %d", fused, serial)
	}
}

// TestBatchedMainPhaseAllocatesNothing asserts the fused run's
// zero-allocation steady state: once a width-K batch is bound into a
// pooled wide workspace, each Main-Phase iteration of the fused pass
// performs zero heap allocations — long-lived serving loops reuse the wide
// workspace instead of reallocating per flush.
func TestBatchedMainPhaseAllocatesNothing(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	progs := make([]vprog.Program, k)
	for i := range progs {
		progs[i] = algo.NewPersonalizedPageRank(g, uint32(i), 0.85, 0, 8)
	}
	bp, err := vprog.NewBatch(g.NumNodes(), progs...)
	if err != nil {
		t.Fatal(err)
	}
	pool := e.workspacePool(k)
	ws := pool.Get().(*Workspace)
	defer pool.Put(ws)
	// Warm up: bind the fused run into the workspace.
	if _, _, err := e.RunInWorkspace(bp, ws); err != nil {
		t.Fatal(err)
	}
	bp.Reset()
	allocs := testing.AllocsPerRun(50, func() {
		ws.rc.iterateMain()
	})
	if allocs != 0 {
		t.Fatalf("fused main-phase iteration allocated %.1f times per run, want 0", allocs)
	}
}

// TestBatcherSharedTraceSpansNotDuplicated: two lanes of one multi-source
// request share a single trace via their common context. The trace gets one
// queue span per lane (each lane's own wait is real) but must appear in the
// fused run's trace list once — otherwise fuse/demux and every engine span
// double and the span cap burns at 2x rate. A lone traced query, run
// unfused, records its queue span and the engine's spans but no fuse or
// demux span: there was nothing to fuse.
func TestBatcherSharedTraceSpansNotDuplicated(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 2, MaxWait: time.Hour})
	defer b.Close()

	const iters = 5
	for _, tc := range []struct {
		name         string
		sources      []uint32
		fuseAndSplit int
	}{
		{"two-lanes", []uint32{3, 7}, 1},
		{"lone", []uint32{3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := obs.NewTracer(4, 1)
			tr := tracer.Start(tracer.NextID(), "ppr")
			ctx := obs.WithTrace(t.Context(), tr)
			progs := make([]vprog.Program, len(tc.sources))
			for i, src := range tc.sources {
				progs[i] = algo.NewPersonalizedPageRank(g, src, 0.85, 0, iters)
			}
			futs, err := b.SubmitAllCtx(ctx, progs)
			if err != nil {
				t.Fatal(err)
			}
			for _, fut := range futs {
				if _, err := fut.Wait(); err != nil {
					t.Fatal(err)
				}
				if fut.BatchSize() != len(tc.sources) {
					t.Fatalf("batch size %d, want %d", fut.BatchSize(), len(tc.sources))
				}
			}
			tracer.Finish(tr, "ok")

			snap := tracer.Ring().Snapshot()
			if len(snap) != 1 {
				t.Fatalf("ring holds %d traces, want 1", len(snap))
			}
			counts := map[obs.SpanKind]int{}
			for _, s := range snap[0].Spans {
				counts[s.Kind]++
			}
			if counts[obs.SpanQueue] != len(tc.sources) {
				t.Errorf("queue spans = %d, want %d (one per lane)", counts[obs.SpanQueue], len(tc.sources))
			}
			for kind, want := range map[obs.SpanKind]int{
				obs.SpanFuse: tc.fuseAndSplit, obs.SpanDemux: tc.fuseAndSplit,
				obs.SpanPrePhase: 1, obs.SpanPostPhase: 1, obs.SpanIteration: iters,
			} {
				if counts[kind] != want {
					t.Errorf("%s spans = %d, want %d", kind, counts[kind], want)
				}
			}
		})
	}
}

// TestInvalidProgramReturnsError: a program whose parameters lie outside
// its domain — NaN damping, an infinite or negative tolerance, a source
// past the last node — is refused with its Check error by Engine.Run,
// alone or as a lane of a fused batch, instead of answering NaN with a nil
// error. Batcher.SubmitAllCtx refuses a group holding one and admits none
// of it, while the lanes of the batch already running still answer.
func TestInvalidProgramReturnsError(t *testing.T) {
	g := skewedForConcurrency(t)
	n := g.NumNodes()
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ppr := func(src uint32) vprog.Program { return algo.NewPersonalizedPageRank(g, src, 0.85, 0, 10) }
	bad := []vprog.Program{
		algo.NewPageRank(g, math.NaN(), 1e-9, 10),
		algo.NewPageRank(g, 0.85, math.Inf(1), 10),
		algo.NewPersonalizedPageRank(g, 3, math.NaN(), 0, 10),
		algo.NewPersonalizedPageRank(g, 3, 0.85, -1, 10),
		algo.NewPersonalizedPageRank(g, uint32(n), 0.85, 0, 10),
	}
	for i, p := range bad {
		want := vprog.Check(p)
		if want == nil {
			t.Fatalf("bad program %d passes Check", i)
		}
		if res, err := e.Run(p); res != nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("bad program %d: Run = (%v, %v), want (nil, %v)", i, res, err, want)
		}
		bp, err := vprog.NewBatch(n, ppr(1), p)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := e.Run(bp); res != nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("bad program %d as lane 1: Run = (%v, %v), want (nil, %v)", i, res, err, want)
		}
	}

	reg := obs.NewRegistry()
	e.SetCollector(reg)
	b := NewBatcher(e, BatcherConfig{MaxBatch: 8, MaxWait: time.Hour})
	defer b.Close()
	ctx := context.Background()
	futs, err := b.SubmitAllCtx(ctx, []vprog.Program{ppr(1), ppr(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubmitAllCtx(ctx, []vprog.Program{ppr(4), bad[2]}); err == nil || !strings.Contains(err.Error(), vprog.Check(bad[2]).Error()) {
		t.Fatalf("SubmitAllCtx with a NaN-damping lane: %v, want its Check error", err)
	}
	later, err := b.SubmitAllCtx(ctx, []vprog.Program{ppr(5)})
	if err != nil {
		t.Fatal(err)
	}
	for i, fut := range append(futs, later...) {
		src := []uint32{1, 2, 5}[i]
		res, err := fut.Wait()
		if err != nil {
			t.Fatalf("lane from %d: %v", src, err)
		}
		want, err := e.Run(ppr(src))
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(res.Values, want.Values) || res.Iterations != want.Iterations {
			t.Errorf("lane from %d differs from its standalone run", src)
		}
	}
	if q := reg.Snapshot().Counters["batch.queries"]; q != 3 {
		t.Errorf("batch.queries = %d, want 3: the refused group admitted a lane", q)
	}
}
