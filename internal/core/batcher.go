package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mixen/internal/obs"
	"mixen/internal/vprog"
)

// BatcherConfig tunes a Batcher.
type BatcherConfig struct {
	// MaxBatch is the most queries fused into one run (default 16). A
	// queue reaching MaxBatch is dispatched immediately.
	MaxBatch int
	// MaxWait is the longest a request may queue while every run slot is
	// busy (default 500µs); it is not a window a request waits out for
	// companions — with a slot free a submission is dispatched at once.
	// Zero or negative never queues: every submission is dispatched
	// immediately, whatever is in flight.
	MaxWait time.Duration
	// Width is the per-query property width every submission must have
	// (default 1, the scalar link-analysis queries).
	Width int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait == 0 {
		c.MaxWait = 500 * time.Microsecond
	}
	if c.Width <= 0 {
		c.Width = 1
	}
	return c
}

// Future is the pending result of a batched submission.
type Future struct {
	done      chan struct{}
	res       *vprog.Result
	err       error
	batchSize int
}

// Wait blocks until the query's run completes and returns its result
// (Values in original id order, per-query Iterations and Delta). The
// result is the caller's to keep.
func (f *Future) Wait() (*vprog.Result, error) {
	<-f.done
	return f.res, f.err
}

// WaitCtx is Wait with a deadline: it returns ctx.Err() as soon as ctx is
// done, WITHOUT blocking or cancelling the fused run — companions in the
// same batch still get their results, and this query's (discarded) lanes
// ride along. The abandoning caller contributes to the batch's automatic
// cancellation only once every other member has abandoned too (see
// SubmitCtx).
func (f *Future) WaitCtx(ctx context.Context) (*vprog.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BatchSize reports how many queries shared the run (1: the query ran
// alone, unfused). Valid after Wait returns.
func (f *Future) BatchSize() int { return f.batchSize }

type batchReq struct {
	prog vprog.Program
	fut  *Future
	ctx  context.Context
	enq  time.Time
	// traces carries the submitter's request-scoped traces (captured once
	// at Submit so the run goroutine never touches a context the waiter
	// may have abandoned). Nil for untraced requests.
	traces []*obs.Trace
}

// batchQueue collects the requests of one ring that are queued behind
// in-flight runs. The dispatch rule keeps it shorter than MaxBatch.
type batchQueue struct {
	reqs  []batchReq
	timer *time.Timer // MaxWait bound on reqs[0]; nil while the queue is empty
	gen   uint64      // invalidates deadline callbacks for queues already taken
}

// flushCause says what dispatched a batch; each has its counter and
// batch.flushes is their sum.
type flushCause int

const (
	// causeIdle: a submission found a free run slot and was dispatched at
	// once.
	causeIdle flushCause = iota
	// causeFull: the queue reached MaxBatch.
	causeFull
	// causeDeadline: the oldest queued request had waited MaxWait (or
	// MaxWait <= 0 forbids queueing, or Close forced the queue out).
	causeDeadline
	// causeDrain: a finishing run took what had queued behind it.
	causeDrain
	numCauses
)

// batcherMetrics caches the collector handles so Submit/exec never do
// name lookups.
type batcherMetrics struct {
	queries         *obs.Counter
	flushes         *obs.Counter
	flushesBy       [numCauses]*obs.Counter
	inflight        *obs.Gauge
	size            *obs.Histogram
	queueWaitNs     *obs.Histogram
	fusedTraffic    *obs.Counter
	serialTraffic   *obs.Counter
	rejectedExpired *obs.Counter
	cancelledRuns   *obs.Counter
	panics          *obs.Counter
}

// Batcher is the engine-level request collector for batched serving:
// Submit hands in one scalar query and returns a Future. It is
// work-conserving: a submission that finds a free run slot — fewer runs in
// flight than the host can execute, max(1, GOMAXPROCS / engine threads) —
// is dispatched at once, so a lone query never waits for companions.
// Requests queue only behind in-flight runs; a finishing run immediately
// takes what queued behind it (group commit), a queue reaching MaxBatch is
// dispatched whatever is in flight, and MaxWait bounds how long a request
// may queue. Batches of two or more are fused with vprog.NewBatch,
// executed as ONE wide pass over a pooled wide workspace and demuxed back
// into per-query results; a batch of one runs its own program in a pooled
// width-Width workspace straight into the result its Future hands out —
// exactly what Engine.Run computes. Queries on different rings (Sum vs
// Min) queue separately; queries in one batch must share the per-node
// Scale function (vprog.Batch's contract — a violation fails every future
// in the batch). The lanes of one logical request go in together through
// SubmitAllCtx.
//
// A panic in a submitted program fails the futures of the batch it ran in
// and is counted in batch.panics; the process, the other batches and the
// run-slot accounting are unaffected.
//
// A Batcher is safe for concurrent Submit callers. Metrics flow through
// the engine's Collector at construction time: batch.size,
// batch.queue_wait_ns (p50/p95/p99 via the histogram), the four flush
// cause counters, the batch.inflight gauge, and modeled fused vs
// serial-equivalent traffic.
type Batcher struct {
	e   *Engine
	cfg BatcherConfig
	m   batcherMetrics

	mu       sync.Mutex
	queues   [2]batchQueue // indexed by vprog.Ring
	inflight int           // batches dispatched and not yet finished
	closed   bool
}

// NewBatcher wraps e for batched serving.
func NewBatcher(e *Engine, cfg BatcherConfig) *Batcher {
	col := e.Collector()
	return &Batcher{
		e:   e,
		cfg: cfg.withDefaults(),
		m: batcherMetrics{
			queries: col.Counter("batch.queries"),
			flushes: col.Counter("batch.flushes"),
			flushesBy: [numCauses]*obs.Counter{
				causeIdle:     col.Counter("batch.flushes_idle"),
				causeFull:     col.Counter("batch.flushes_full"),
				causeDeadline: col.Counter("batch.flushes_deadline"),
				causeDrain:    col.Counter("batch.flushes_drain"),
			},
			inflight:        col.Gauge("batch.inflight"),
			size:            col.Histogram("batch.size"),
			queueWaitNs:     col.Histogram("batch.queue_wait_ns"),
			fusedTraffic:    col.Counter("batch.fused_traffic_bytes"),
			serialTraffic:   col.Counter("batch.serial_equiv_traffic_bytes"),
			rejectedExpired: col.Counter("batch.rejected_expired"),
			cancelledRuns:   col.Counter("batch.cancelled_runs"),
			panics:          col.Counter("batch.panics"),
		},
	}
}

// Submit hands in prog and returns its Future. prog must have the
// Batcher's configured per-query width; mixed widths are rejected here
// (fusing them would starve the width-keyed workspace reuse the Batcher
// exists for).
func (b *Batcher) Submit(prog vprog.Program) (*Future, error) {
	return b.SubmitCtx(context.Background(), prog)
}

// SubmitCtx is Submit with a per-query context. A context that is already
// done is rejected synchronously — an expired query never joins (or
// delays) a batch. After admission the context governs only this query's
// stake in the fused run: the run executes under a context that is
// cancelled when EVERY member's context is done, so one abandoned query
// never cancels its companions' work, while a batch nobody is waiting for
// stops within one engine iteration and frees its pooled workspace.
// Callers bound by ctx should pair SubmitCtx with Future.WaitCtx.
func (b *Batcher) SubmitCtx(ctx context.Context, prog vprog.Program) (*Future, error) {
	futs, err := b.SubmitAllCtx(ctx, []vprog.Program{prog})
	if err != nil {
		return nil, err
	}
	return futs[0], nil
}

// SubmitAllCtx hands in the lanes of one logical request together: all of
// progs reach the queue under one lock hold, before the dispatch rule
// looks at it, so on an idle Batcher they leave as one fused run (split
// only at MaxBatch) instead of the first lane being dispatched alone with
// the rest queued behind it. Futures come back in progs' order; every lane
// shares ctx under SubmitCtx's rules. Either all lanes are admitted or
// none is.
func (b *Batcher) SubmitAllCtx(ctx context.Context, progs []vprog.Program) ([]*Future, error) {
	if err := ctx.Err(); err != nil {
		b.m.rejectedExpired.Add(int64(len(progs)))
		return nil, err
	}
	for _, prog := range progs {
		if prog == nil {
			return nil, fmt.Errorf("core: batcher: nil program")
		}
		if w := prog.Width(); w != b.cfg.Width {
			return nil, fmt.Errorf("core: batcher accepts width-%d programs, got width %d (mixed widths cannot share a batch; use a separate Batcher or run it directly)", b.cfg.Width, w)
		}
		if ring := prog.Ring(); int(ring) >= len(b.queues) {
			return nil, fmt.Errorf("core: batcher: unknown ring %d", ring)
		}
		if err := vprog.Check(prog); err != nil {
			return nil, fmt.Errorf("core: batcher: invalid program: %w", err)
		}
	}
	futs := make([]*Future, len(progs))
	enq, traces := time.Now(), obs.ContextTraces(ctx)

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("core: batcher is closed")
	}
	for i, prog := range progs {
		futs[i] = &Future{done: make(chan struct{})}
		q := &b.queues[prog.Ring()]
		q.reqs = append(q.reqs, batchReq{prog: prog, fut: futs[i], ctx: ctx, enq: enq, traces: traces})
	}
	b.m.queries.Add(int64(len(progs)))
	for ring := range b.queues {
		b.dispatchLocked(vprog.Ring(ring))
	}
	return futs, nil
}

// slots is how many runs the host can execute at once: each occupies the
// engine's thread count.
func (b *Batcher) slots() int {
	return max(1, runtime.GOMAXPROCS(0)/b.e.cfg.Threads)
}

// dispatchLocked applies the dispatch rule to one ring's queue after a
// submission: full batches go at once; what is left goes too if a run slot
// is free (or MaxWait <= 0 forbids queueing), and otherwise waits behind
// the in-flight runs under the MaxWait timer. Callers hold b.mu.
func (b *Batcher) dispatchLocked(ring vprog.Ring) {
	q := &b.queues[ring]
	for len(q.reqs) >= b.cfg.MaxBatch {
		go b.run(b.takeLocked(q, b.cfg.MaxBatch, causeFull))
	}
	switch {
	case len(q.reqs) == 0:
	case b.inflight < b.slots():
		go b.run(b.takeLocked(q, len(q.reqs), causeIdle))
	case b.cfg.MaxWait <= 0:
		go b.run(b.takeLocked(q, len(q.reqs), causeDeadline))
	case q.timer == nil:
		// Whatever is queued now was enqueued by this very submission (an
		// older head would have had its timer), so MaxWait from here is
		// MaxWait from the head's arrival.
		gen := q.gen
		q.timer = time.AfterFunc(b.cfg.MaxWait, func() { b.flushDeadline(ring, gen) })
	}
}

// takeLocked detaches the first n queued requests as a batch that now
// occupies a run slot; the caller must hand it to run. Taking invalidates
// the queue's deadline timer. Callers hold b.mu.
func (b *Batcher) takeLocked(q *batchQueue, n int, cause flushCause) []batchReq {
	batch := q.reqs[:n:n]
	q.reqs = q.reqs[n:]
	if len(q.reqs) == 0 {
		q.reqs = nil
	}
	q.gen++
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	b.inflight++
	b.m.inflight.Set(int64(b.inflight))
	b.m.flushes.Inc()
	b.m.flushesBy[cause].Inc()
	return batch
}

// flushDeadline is the MaxWait timer callback: dispatch whatever the queue
// holds, unless a flush (or Close) already took this queue.
func (b *Batcher) flushDeadline(ring vprog.Ring, gen uint64) {
	b.mu.Lock()
	q := &b.queues[ring]
	if q.gen != gen || len(q.reqs) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked(q, len(q.reqs), causeDeadline)
	b.mu.Unlock()
	b.run(batch)
}

// run executes a dispatched batch and then keeps its run slot working:
// while requests have queued behind the in-flight runs, the finishing
// goroutine takes the next batch itself. The slot is given back before the
// results are published, so a caller woken by its Future finds the slot
// free.
func (b *Batcher) run(batch []batchReq) {
	for batch != nil {
		results, err := b.exec(batch)
		next := b.finish()
		deliver(batch, results, err)
		batch = next
	}
}

// finish gives back a finished batch's run slot and, if the slot is now
// free and requests are queued, takes the queue whose head has waited
// longest.
func (b *Batcher) finish() []batchReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inflight--
	b.m.inflight.Set(int64(b.inflight))
	if b.inflight >= b.slots() {
		return nil // full flushes over-committed the host; shed the extra slot
	}
	var next *batchQueue
	for i := range b.queues {
		q := &b.queues[i]
		if len(q.reqs) > 0 && (next == nil || q.reqs[0].enq.Before(next.reqs[0].enq)) {
			next = q
		}
	}
	if next == nil {
		return nil
	}
	return b.takeLocked(next, len(next.reqs), causeDrain)
}

// exec runs one batch and returns each member's result, or the error they
// share. A panic in a member's program fails the batch; its workspace,
// possibly torn mid-phase, is never put back in the pool.
func (b *Batcher) exec(reqs []batchReq) (results []*vprog.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.m.panics.Inc()
			results, err = nil, fmt.Errorf("core: batcher: run panicked: %v", r)
		}
	}()
	now := time.Now()
	b.m.size.Observe(int64(len(reqs)))
	// allTraces rides into the fused run's context so the engine records
	// its per-iteration spans on behalf of every traced member; nil (and
	// allocation-free) when no member is traced. Members of one multi-lane
	// request share a trace — it gets one queue span per lane but must
	// appear in allTraces once, or every downstream span doubles.
	var allTraces []*obs.Trace
	for _, r := range reqs {
		b.m.queueWaitNs.Observe(now.Sub(r.enq).Nanoseconds())
	memberTraces:
		for _, t := range r.traces {
			t.AddSpanIter(obs.SpanQueue, 0, r.enq, now)
			t.SetBatchSize(len(reqs))
			for _, seen := range allTraces {
				if seen == t {
					continue memberTraces
				}
			}
			allTraces = append(allTraces, t)
		}
	}
	// width and iters describe the one pass that actually ran, results
	// what each member gets out of it.
	var width, iters int
	if len(reqs) == 1 {
		var res *vprog.Result
		if res, err = b.runAlone(reqs[0]); err == nil {
			results, width, iters = []*vprog.Result{res}, b.cfg.Width, res.Iterations
		}
	} else {
		results, width, iters, err = b.runFused(reqs, allTraces, now)
	}
	if err != nil {
		return nil, err
	}

	// Modeled traffic: the pass that ran vs what the same queries would
	// have streamed as independent width-Width runs (each at its own
	// iteration count). Equal for a query that ran alone.
	withCache := !b.e.cfg.DisableCache
	b.m.fusedTraffic.Add(b.e.P.TrafficPerIteration(width, withCache) * int64(iters))
	perQuery := b.e.P.TrafficPerIteration(b.cfg.Width, withCache)
	var serial int64
	for _, res := range results {
		serial += perQuery * int64(res.Iterations)
	}
	b.m.serialTraffic.Add(serial)
	return results, nil
}

// deliver resolves a batch's futures with exec's outcome.
func deliver(reqs []batchReq, results []*vprog.Result, err error) {
	for i, r := range reqs {
		if r.fut.err = err; err == nil {
			r.fut.res = results[i]
		}
		r.fut.batchSize = len(reqs)
		close(r.fut.done)
	}
}

// runAlone runs a batch of one, which is not a batch: no fusing wrapper, no
// demux copy. The member's own program runs under its own context (which
// already carries its traces) in a pooled width-Width workspace, straight
// into the slice its Future hands out.
func (b *Batcher) runAlone(r batchReq) (*vprog.Result, error) {
	pool := b.e.workspacePool(b.cfg.Width)
	ws := pool.Get().(*Workspace)
	res, _, err := b.e.RunToCtx(r.ctx, r.prog, ws, make([]float64, b.e.F.N()*b.cfg.Width))
	pool.Put(ws)
	if err != nil && r.ctx.Err() != nil {
		b.m.cancelledRuns.Inc()
	}
	return res, err
}

// runFused fuses two or more members into one wide program, runs it in a
// pooled wide workspace and demuxes the result; it also returns the wide
// pass's width and iteration count.
func (b *Batcher) runFused(reqs []batchReq, allTraces []*obs.Trace, start time.Time) ([]*vprog.Result, int, int, error) {
	progs := make([]vprog.Program, len(reqs))
	for i, r := range reqs {
		progs[i] = r.prog
	}
	bp, err := vprog.NewBatch(b.e.F.N(), progs...)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, t := range allTraces {
		t.AddSpan(obs.SpanFuse, start)
	}
	// The fused run executes under a context that is cancelled when every
	// member's context is done: a batch nobody is waiting for must not
	// keep a pooled wide workspace pinned for its full iteration budget.
	// One member with an uncancellable context (plain Submit) keeps the
	// run alive unconditionally, as it should.
	runCtx, stopRun := b.runContext(reqs)
	defer stopRun()
	runCtx = obs.WithTraces(runCtx, allTraces)

	// The engine's width-keyed pool keeps a small set of long-lived wide
	// workspaces alive across flushes, so steady-state serving reuses the
	// fused run state instead of reallocating it.
	pool := b.e.workspacePool(bp.Width())
	ws := pool.Get().(*Workspace)
	res, _, err := b.e.RunInWorkspaceCtx(runCtx, bp, ws)
	if err != nil {
		if runCtx.Err() != nil {
			b.m.cancelledRuns.Inc()
		}
		pool.Put(ws)
		return nil, 0, 0, err
	}
	demuxStart := time.Now()
	split, err := bp.Split(res) // copies values out of ws.out
	pool.Put(ws)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, t := range allTraces {
		t.AddSpan(obs.SpanDemux, demuxStart)
	}
	return split, bp.Width(), res.Iterations, nil
}

// runContext derives the fused run's context from the batch members': it
// is cancelled once ALL member contexts are done, and never before. The
// returned stop releases the AfterFunc registrations and the context;
// callers must invoke it when the run returns.
func (b *Batcher) runContext(reqs []batchReq) (context.Context, func()) {
	for _, r := range reqs {
		if r.ctx.Done() == nil {
			// At least one member cannot be cancelled: neither can the run.
			return context.Background(), func() {}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(reqs))
	stops := make([]func() bool, len(reqs))
	for i, r := range reqs {
		stops[i] = context.AfterFunc(r.ctx, func() {
			if atomic.AddInt64(&remaining, -1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, s := range stops {
			s()
		}
		cancel()
	}
}

// Close dispatches any queued queries, runs them synchronously and
// rejects future Submits. Outstanding futures complete normally.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var batches [][]batchReq
	for i := range b.queues {
		if q := &b.queues[i]; len(q.reqs) > 0 {
			batches = append(batches, b.takeLocked(q, len(q.reqs), causeDeadline))
		}
	}
	b.mu.Unlock()
	for _, batch := range batches {
		b.run(batch)
	}
	return nil
}
