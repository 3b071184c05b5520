package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mixen/internal/algo"
	"mixen/internal/obs"
	"mixen/internal/vprog"
)

// cancelAt wraps a program and fires cancel from the Converged hook at a
// chosen iteration — a deterministic way to cancel a run that is
// mid-flight, from inside the coordinator itself. Converged always
// answers false, so only cancellation can stop the run before MaxIter.
type cancelAt struct {
	vprog.Program
	iter   int
	cancel context.CancelFunc
}

func (c *cancelAt) Converged(delta float64, iter int) bool {
	if iter == c.iter {
		c.cancel()
	}
	return false
}

func (c *cancelAt) MaxIter() int { return 10_000 }

// TestRunCtxPreCancelled: an already-done context never starts the run and
// the error surfaces as context.Canceled with the cancelled-run counter
// booked.
func TestRunCtxPreCancelled(t *testing.T) {
	g := tiny(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunCtx(ctx, algo.NewPageRank(g, 0.85, 0, 10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if got := reg.Counter("core.cancelled_runs").Value(); got != 1 {
		t.Fatalf("core.cancelled_runs = %d, want 1", got)
	}
}

// TestRunCtxMidRunCancel cancels from the Converged hook a few iterations
// in: the run must stop early (well short of MaxIter), return
// context.Canceled, and report the partial iteration count in RunStats.
func TestRunCtxMidRunCancel(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancelAt{Program: algo.NewPageRank(g, 0.85, 0, 10_000), iter: 3, cancel: cancel}
	res, stats, err := e.RunWithStatsCtx(ctx, prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	// cancel closes the done channel synchronously from inside the
	// Converged hook, and the coordinator polls it at the next iteration
	// boundary — so the run stops after exactly the cancelling iteration.
	if stats.MainIterations != 3 {
		t.Fatalf("run stopped after %d iterations, want exactly 3 (cancel fired at iteration 3)", stats.MainIterations)
	}
	if got := reg.Counter("core.cancelled_runs").Value(); got != 1 {
		t.Fatalf("core.cancelled_runs = %d, want 1", got)
	}
}

// TestRunCtxDeadline: a deadline that expires mid-run surfaces as
// context.DeadlineExceeded and books core.deadline_runs (not
// cancelled_runs).
func TestRunCtxDeadline(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// No tolerance and a huge budget: only the deadline can stop it.
	_, err = e.RunCtx(ctx, algo.NewPageRank(g, 0.85, 0, 10_000_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := reg.Counter("core.deadline_runs").Value(); got != 1 {
		t.Fatalf("core.deadline_runs = %d, want 1", got)
	}
	if got := reg.Counter("core.cancelled_runs").Value(); got != 0 {
		t.Fatalf("core.cancelled_runs = %d, want 0 for a deadline expiry", got)
	}
}

// TestWorkspaceReusableAfterCancel is the no-leak contract: a workspace
// whose run was abandoned mid-iteration (torn phase state, partial swaps,
// dirty frontier masks) must serve the next run unchanged — bit-identical
// to the same program on a fresh engine.
func TestWorkspaceReusableAfterCancel(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(algo.NewPageRank(g, 0.85, 0, 20))
	if err != nil {
		t.Fatal(err)
	}

	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		prog := &cancelAt{Program: algo.NewPageRank(g, 0.85, 0, 10_000), iter: 2, cancel: cancel}
		if _, _, err := e.RunInWorkspaceCtx(ctx, prog, ws); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		cancel()
		res, _, err := e.RunInWorkspaceCtx(context.Background(), algo.NewPageRank(g, 0.85, 0, 20), ws)
		if err != nil {
			t.Fatalf("trial %d: rerun in cancelled workspace: %v", trial, err)
		}
		if !sameValues(res.Values, want.Values) {
			t.Fatalf("trial %d: rerun after cancel differs from fresh run", trial)
		}
	}
}

// TestPooledWorkspaceReusableAfterCancel exercises the RunCtx pool path:
// a cancelled pooled run must return its workspace to the pool in a
// reusable state, so the next RunCtx (which grabs the same pooled
// workspace on a single-threaded pool) still matches a clean run.
func TestPooledWorkspaceReusableAfterCancel(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(algo.NewPageRank(g, 0.85, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	prog := &cancelAt{Program: algo.NewPageRank(g, 0.85, 0, 10_000), iter: 2, cancel: cancel}
	if _, err := e.RunCtx(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
	res, err := e.RunCtx(context.Background(), algo.NewPageRank(g, 0.85, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(res.Values, want.Values) {
		t.Fatal("pooled rerun after cancelled run differs from fresh run")
	}
}

// TestCancellableIterationAllocatesNothing extends the zero-alloc
// steady-state assertion to the cancellable path: with the stop flag armed
// (stopPtr non-nil, as under any cancellable ctx), a main-phase iteration
// still performs zero heap allocations — cancellation costs one atomic
// load per chunk, not an allocation.
func TestCancellableIterationAllocatesNothing(t *testing.T) {
	g := skewedForConcurrency(t)
	e, err := New(g, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := e.NewWorkspace(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunInWorkspace(algo.NewPageRank(g, 0.85, 0, 10), ws); err != nil {
		t.Fatal(err)
	}
	ws.rc.stopPtr = new(atomic.Bool)
	defer func() { ws.rc.stopPtr = nil }()
	allocs := testing.AllocsPerRun(50, func() {
		ws.rc.iterateMain()
	})
	if allocs != 0 {
		t.Fatalf("cancellable main-phase iteration allocated %.1f times per run, want 0", allocs)
	}
}

// TestSubmitCtxExpiredRejected: a Submit whose context is already done is
// rejected synchronously — it never enters a queue, never delays a batch,
// and books batch.rejected_expired.
func TestSubmitCtxExpiredRejected(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e, err := New(g, Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Millisecond})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.SubmitCtx(ctx, algo.NewPersonalizedPageRank(g, 1, 0.85, 0, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := reg.Counter("batch.rejected_expired").Value(); got != 1 {
		t.Fatalf("batch.rejected_expired = %d, want 1", got)
	}
}

// TestWaitCtxAbandonDoesNotBlockBatch: one caller abandoning its future
// (WaitCtx deadline) must not cancel or corrupt companions fused into the
// same run — the other query still gets its exact standalone result. The
// two have contexts of their own, so they arrive one by one; a held run
// slot makes them queue, and MaxBatch 2 dispatches them as one batch.
func TestWaitCtxAbandonDoesNotBlockBatch(t *testing.T) {
	g := skewedForConcurrency(t)
	e := singleSlotEngine(t, g, nil)
	want, err := e.Run(algo.NewPersonalizedPageRank(g, 7, 0.85, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, BatcherConfig{MaxBatch: 2, MaxWait: time.Hour})
	defer b.Close()
	_, release := holdRunSlot(t, b, g)
	defer release()

	expired, cancelExpired := context.WithCancel(context.Background())
	futA, err := b.SubmitCtx(expired, algo.NewPersonalizedPageRank(g, 3, 0.85, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	futB, err := b.SubmitCtx(context.Background(), algo.NewPersonalizedPageRank(g, 7, 0.85, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	cancelExpired() // abandon A after both are queued (MaxBatch=2 fused them)
	if _, err := futA.WaitCtx(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait: err = %v, want context.Canceled", err)
	}
	res, err := futB.WaitCtx(context.Background())
	if err != nil {
		t.Fatalf("companion query failed: %v", err)
	}
	if futB.BatchSize() != 2 {
		t.Fatalf("batch size %d, want 2", futB.BatchSize())
	}
	if !sameValues(res.Values, want.Values) {
		t.Fatal("companion result differs from standalone run after batch-mate abandoned")
	}
}

// TestBatchRunCancelsWhenAllMembersCancel: when EVERY member of a run has
// a done context, the run itself is cancelled cooperatively and every
// future resolves with the cancellation error — for members with contexts
// of their own fused behind a held slot, for the lanes of one group under
// their shared context, and for a lone query run unfused.
func TestBatchRunCancelsWhenAllMembersCancel(t *testing.T) {
	g := skewedForConcurrency(t)
	// Huge budgets, no tolerance: only cancellation can finish these.
	endless := func(src uint32) vprog.Program {
		return algo.NewPersonalizedPageRank(g, src, 0.85, 0, 10_000_000)
	}
	for _, tc := range []struct {
		name   string
		submit func(t *testing.T, b *Batcher) (futs []*Future, cancelAll func())
	}{
		{"own-contexts", func(t *testing.T, b *Batcher) ([]*Future, func()) {
			_, release := holdRunSlot(t, b, g)
			t.Cleanup(release)
			ctxA, cancelA := context.WithCancel(context.Background())
			ctxB, cancelB := context.WithCancel(context.Background())
			futA, err := b.SubmitCtx(ctxA, endless(3))
			if err != nil {
				t.Fatal(err)
			}
			futB, err := b.SubmitCtx(ctxB, endless(7))
			if err != nil {
				t.Fatal(err)
			}
			return []*Future{futA, futB}, func() { cancelA(); cancelB() }
		}},
		{"group", func(t *testing.T, b *Batcher) ([]*Future, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			futs, err := b.SubmitAllCtx(ctx, []vprog.Program{endless(3), endless(7)})
			if err != nil {
				t.Fatal(err)
			}
			return futs, cancel
		}},
		{"lone", func(t *testing.T, b *Batcher) ([]*Future, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			fut, err := b.SubmitCtx(ctx, endless(3))
			if err != nil {
				t.Fatal(err)
			}
			return []*Future{fut}, cancel
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			e := singleSlotEngine(t, g, reg)
			b := NewBatcher(e, BatcherConfig{MaxBatch: 2, MaxWait: time.Hour})
			defer b.Close()
			futs, cancelAll := tc.submit(t, b)
			cancelAll()
			for i, fut := range futs {
				if _, err := fut.Wait(); !errors.Is(err, context.Canceled) {
					t.Fatalf("future %d of a fully-cancelled run: err = %v, want context.Canceled", i, err)
				}
			}
			if got := reg.Counter("batch.cancelled_runs").Value(); got != 1 {
				t.Fatalf("batch.cancelled_runs = %d, want 1", got)
			}
		})
	}
}
