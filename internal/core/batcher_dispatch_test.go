package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mixen/internal/algo"
	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/vprog"
)

// The tests here pin the Batcher's dispatch rule without a wall-clock
// assertion: MaxWait is an hour wherever the timer must not be what
// dispatches, and "a run is in flight" is an event (a gate program blocked
// on a channel), not a sleep.

// gateProgram holds the run it is part of in flight: its first Converged
// call — on the run's coordinator, after iteration one — closes entered
// and blocks until open is closed.
type gateProgram struct {
	vprog.Program
	entered, open chan struct{}
	once          sync.Once
}

func (p *gateProgram) Converged(delta float64, iter int) bool {
	p.once.Do(func() {
		close(p.entered)
		<-p.open
	})
	return p.Program.Converged(delta, iter)
}

// holdRunSlot submits a gate program to an idle single-slot Batcher and
// returns once its run is in flight. release lets the run finish; it is
// safe to call more than once.
func holdRunSlot(t *testing.T, b *Batcher, g *graph.Graph) (fut *Future, release func()) {
	t.Helper()
	gate := &gateProgram{
		Program: algo.NewPersonalizedPageRank(g, 1, 0.85, 0, 4),
		entered: make(chan struct{}),
		open:    make(chan struct{}),
	}
	fut, err := b.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	var once sync.Once
	return fut, func() { once.Do(func() { close(gate.open) }) }
}

// singleSlotEngine builds an engine whose runs each take every P, so the
// Batcher over it has exactly one run slot.
func singleSlotEngine(t *testing.T, g *graph.Graph, col obs.Collector) *Engine {
	t.Helper()
	e, err := New(g, Config{Threads: runtime.GOMAXPROCS(0), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func pprSet(g *graph.Graph, sources ...uint32) []vprog.Program {
	progs := make([]vprog.Program, len(sources))
	for i, src := range sources {
		progs[i] = algo.NewPersonalizedPageRank(g, src, 0.85, 0, 8)
	}
	return progs
}

// waitAllMatch waits for every future and holds its result to the
// standalone run of the same program.
func waitAllMatch(t *testing.T, e *Engine, g *graph.Graph, futs []*Future, sources []uint32, wantBatch int) {
	t.Helper()
	for i, fut := range futs {
		res, err := fut.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if fut.BatchSize() != wantBatch {
			t.Errorf("query %d: batch size %d, want %d", i, fut.BatchSize(), wantBatch)
		}
		want, err := e.Run(pprSet(g, sources[i])[0])
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(res.Values, want.Values) || res.Iterations != want.Iterations {
			t.Errorf("query %d differs from its standalone run", i)
		}
		// A fused lane's Delta is folded in the batch's order; an unfused
		// run is the standalone run, Delta included.
		if wantBatch == 1 && res.Delta != want.Delta {
			t.Errorf("query %d: unfused Delta %g, standalone %g", i, res.Delta, want.Delta)
		}
	}
}

// TestSubmitAllFusesOnIdle: the lanes of one request reach the queue
// together, so the idle check sees all eight and they leave as ONE
// width-8 run — not lane one alone with seven queued behind it.
func TestSubmitAllFusesOnIdle(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e := singleSlotEngine(t, g, reg)
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Hour})
	defer b.Close()

	sources := []uint32{0, 3, 7, 11, 19, 23, 42, 99}
	futs, err := b.SubmitAllCtx(context.Background(), pprSet(g, sources...))
	if err != nil {
		t.Fatal(err)
	}
	if len(futs) != len(sources) {
		t.Fatalf("%d futures for %d programs", len(futs), len(sources))
	}
	waitAllMatch(t, e, g, futs, sources, len(sources))
	wantFlushes(t, reg, map[string]int64{"idle": 1})
	if got := reg.Counter("batch.queries").Value(); got != int64(len(sources)) {
		t.Errorf("batch.queries = %d, want %d", got, len(sources))
	}
}

// TestSubmitAllSplitsAtMaxBatch: a group wider than MaxBatch leaves as
// full batches plus a remainder, every lane still answered in order.
func TestSubmitAllSplitsAtMaxBatch(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e := singleSlotEngine(t, g, reg)
	b := NewBatcher(e, BatcherConfig{MaxBatch: 4, MaxWait: time.Hour})

	sources := []uint32{0, 3, 7, 11, 19, 23, 42, 99, 5, 6}
	futs, err := b.SubmitAllCtx(context.Background(), pprSet(g, sources...))
	if err != nil {
		t.Fatal(err)
	}
	// Two full batches go at once; the last two lanes find the only slot
	// taken and queue until a finishing run takes them.
	waitAllMatch(t, e, g, futs[:8], sources[:8], 4)
	waitAllMatch(t, e, g, futs[8:], sources[8:], 2)
	wantFlushes(t, reg, map[string]int64{"full": 2, "drain": 1})

	if futs, err := b.SubmitAllCtx(context.Background(), nil); err != nil || len(futs) != 0 {
		t.Errorf("empty group: %d futures, err %v; want none", len(futs), err)
	}
	if _, err := b.SubmitAllCtx(context.Background(), []vprog.Program{pprSet(g, 1)[0], nil}); err == nil {
		t.Error("a group holding a nil program must be rejected whole")
	}
	if got := reg.Counter("batch.queries").Value(); got != int64(len(sources)) {
		t.Errorf("batch.queries = %d after a rejected group, want %d", got, len(sources))
	}
	b.Close()
	if _, err := b.SubmitAllCtx(context.Background(), pprSet(g, 1)); err == nil {
		t.Error("SubmitAllCtx after Close must fail")
	}
}

// TestBatcherQueuesBehindInflightRun: with the only run slot taken,
// submissions queue — and fuse — behind the in-flight run, and it is the
// finishing run that dispatches them (group commit), not the timer.
func TestBatcherQueuesBehindInflightRun(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e := singleSlotEngine(t, g, reg)
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Hour})
	defer b.Close()

	held, release := holdRunSlot(t, b, g)
	defer release()

	sources := []uint32{3, 7, 11}
	futs := make([]*Future, len(sources))
	for i, src := range sources {
		var err error
		if futs[i], err = b.Submit(pprSet(g, src)[0]); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	queued, inflight := len(b.queues[vprog.Sum].reqs), b.inflight
	b.mu.Unlock()
	if queued != len(sources) || inflight != 1 {
		t.Fatalf("with the slot held: %d queued, %d in flight; want %d and 1", queued, inflight, len(sources))
	}
	if got := reg.Gauge("batch.inflight").Value(); got != 1 {
		t.Errorf("batch.inflight = %d, want 1", got)
	}

	release()
	if _, err := held.Wait(); err != nil {
		t.Fatal(err)
	}
	waitAllMatch(t, e, g, futs, sources, len(sources))
	wantFlushes(t, reg, map[string]int64{"idle": 1, "drain": 1})
	if got := reg.Snapshot().Histograms["batch.queue_wait_ns"].Count; got != int64(1+len(sources)) {
		t.Errorf("batch.queue_wait_ns observed %d members, want %d", got, 1+len(sources))
	}
}

// TestBatcherCloseDrainsQueueBehindInflight: Close must not strand what is
// queued behind a run that is still in flight — it runs the queue itself.
func TestBatcherCloseDrainsQueueBehindInflight(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e := singleSlotEngine(t, g, reg)
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Hour})

	held, release := holdRunSlot(t, b, g)
	defer release()
	sources := []uint32{3, 7}
	futs := make([]*Future, len(sources))
	for i, src := range sources {
		var err error
		if futs[i], err = b.Submit(pprSet(g, src)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The gate is still shut: the queue was drained by Close.
	waitAllMatch(t, e, g, futs, sources, len(sources))
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatalf("the run in flight at Close must complete normally: %v", err)
	}
	wantFlushes(t, reg, map[string]int64{"idle": 1, "deadline": 1})
}

// TestBatcherMaxWaitBoundsQueueing: MaxWait is the upper bound on queueing
// behind in-flight runs — a request stuck behind a run that never
// finishes is dispatched by the deadline.
func TestBatcherMaxWaitBoundsQueueing(t *testing.T) {
	g := skewedForConcurrency(t)
	reg := obs.NewRegistry()
	e := singleSlotEngine(t, g, reg)
	b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Millisecond})
	defer b.Close()

	_, release := holdRunSlot(t, b, g)
	defer release()
	fut, err := b.Submit(pprSet(g, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	waitAllMatch(t, e, g, []*Future{fut}, []uint32{3}, 1) // the gate stays shut
	wantFlushes(t, reg, map[string]int64{"idle": 1, "deadline": 1})
}

// panicAt panics in Apply on one chosen node.
type panicAt struct {
	vprog.Program
	node uint32
}

func (p *panicAt) Apply(v uint32, sum, prev, out []float64) float64 {
	if v == p.node {
		panic("panicAt: chosen node reached")
	}
	return p.Program.Apply(v, sum, prev, out)
}

// TestBatcherPanicContained: a panicking vertex program costs its own
// batch — futures failed with an error, batch.panics bumped — and nothing
// else: the process survives, the run slot comes back (the next lone
// submit is dispatched on idle, not queued), and other batches stay bit
// for bit correct. At 4 Ps the panic may be raised on a pool helper rather
// than on the flushing goroutine; sched carries it over.
func TestBatcherPanicContained(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := skewedForConcurrency(t)
			reg := obs.NewRegistry()
			e := singleSlotEngine(t, g, reg)
			b := NewBatcher(e, BatcherConfig{MaxBatch: 16, MaxWait: time.Hour})
			defer b.Close()
			bad := func() vprog.Program {
				// A regular node: Gather applies it in the first iteration.
				return &panicAt{Program: pprSet(g, 5)[0], node: uint32(e.F.OldID[e.F.NumRegular/2])}
			}

			// Alone (the unfused path), then as one lane of a fused batch.
			fut, err := b.Submit(bad())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("lone panicking program: err = %v, want a panic error", err)
			}
			futs, err := b.SubmitAllCtx(context.Background(), []vprog.Program{pprSet(g, 3)[0], bad()})
			if err != nil {
				t.Fatal(err)
			}
			for i, fut := range futs {
				if _, err := fut.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("lane %d of the panicking batch: err = %v, want a panic error", i, err)
				}
			}
			if got := reg.Counter("batch.panics").Value(); got != 2 {
				t.Errorf("batch.panics = %d, want 2", got)
			}
			b.mu.Lock()
			inflight := b.inflight
			b.mu.Unlock()
			if inflight != 0 {
				t.Fatalf("%d run slots leaked by the panics", inflight)
			}

			sources := []uint32{3, 7, 11}
			futs, err = b.SubmitAllCtx(context.Background(), pprSet(g, sources...))
			if err != nil {
				t.Fatal(err)
			}
			waitAllMatch(t, e, g, futs, sources, len(sources))
			lone, err := b.Submit(pprSet(g, 42)[0])
			if err != nil {
				t.Fatal(err)
			}
			waitAllMatch(t, e, g, []*Future{lone}, []uint32{42}, 1)
			wantFlushes(t, reg, map[string]int64{"idle": 4})
		})
	}
}
