package sched

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixen/internal/obs"
)

// withProcs raises GOMAXPROCS so the pool actually recruits helpers even on
// a single-core CI host, and restores the old value when the test ends.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestPoolWorkersReusedAcrossLoops verifies the persistent pool: running
// many successive parallel loops must not keep spawning goroutines — the
// started-worker count plateaus at the helper cap and stays flat.
func TestPoolWorkersReusedAcrossLoops(t *testing.T) {
	withProcs(t, 4)
	var total atomic.Int64
	for i := 0; i < 8; i++ {
		ForRange(1000, 4, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
	}
	after := poolWorkers()
	if after > runtime.GOMAXPROCS(0)-1 && after > 64 {
		t.Fatalf("pool grew past the helper cap: %d workers", after)
	}
	for i := 0; i < 100; i++ {
		ForRange(1000, 4, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
	}
	if got := poolWorkers(); got != after {
		t.Fatalf("pool kept growing across loops: %d workers after warmup, %d after 100 more loops", after, got)
	}
	if got := total.Load(); got != 108*1000 {
		t.Fatalf("loops covered %d elements, want %d", got, 108*1000)
	}
}

// TestNestedForRangeNoDeadlock issues a parallel ForRange from inside the
// body of another parallel ForRange. Because the caller of every loop
// participates in its own iteration space (helpers are optional), the inner
// loops complete even when all pool workers are tied up running outer
// bodies.
func TestNestedForRangeNoDeadlock(t *testing.T) {
	withProcs(t, 4)
	done := make(chan struct{})
	var count atomic.Int64
	go func() {
		defer close(done)
		ForRange(32, 4, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ForRange(100, 4, 8, func(ilo, ihi int) {
					count.Add(int64(ihi - ilo))
				})
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ForRange deadlocked")
	}
	if got := count.Load(); got != 32*100 {
		t.Fatalf("nested loops covered %d inner elements, want %d", got, 32*100)
	}
}

// TestThreadsOneInlineFastPath checks that a single-threaded loop runs the
// body inline on the calling goroutine as one full-range call, without
// touching the pool.
func TestThreadsOneInlineFastPath(t *testing.T) {
	before := poolWorkers()
	var calls, lo0, hi0 int
	var sawValue int
	marker := 0
	ForRange(1000, 1, 64, func(lo, hi int) {
		calls++
		lo0, hi0 = lo, hi
		marker = 42 // runs synchronously: visible immediately after return
	})
	sawValue = marker
	if calls != 1 || lo0 != 0 || hi0 != 1000 {
		t.Fatalf("inline path: got %d calls covering [%d,%d), want 1 call covering [0,1000)", calls, lo0, hi0)
	}
	if sawValue != 42 {
		t.Fatal("inline path did not execute synchronously on the caller")
	}
	if got := poolWorkers(); got != before {
		t.Fatalf("Threads=1 loop touched the pool: %d workers before, %d after", before, got)
	}
}

// TestPoolMetricsParity locks in the collector contract the pre-pool
// scheduler established (see obs_test.go): per loop, exactly one
// sched.calls increment, ceil(n/chunk) chunks for ForRange, `threads`
// chunks for ForStatic, and a non-negative clamped idle observation —
// regardless of how many physical helpers participate.
func TestPoolMetricsParity(t *testing.T) {
	withProcs(t, 4)
	reg := obs.NewRegistry()
	SetCollector(reg)
	defer SetCollector(nil)

	const n, chunk, threads = 5000, 64, 4
	ForRange(n, threads, chunk, func(lo, hi int) {})
	ForStatic(n, threads, func(worker, lo, hi int) {})

	s := reg.Snapshot()
	if got := s.Counters["sched.calls"]; got != 2 {
		t.Fatalf("sched.calls = %v, want 2", got)
	}
	wantChunks := int64(math.Ceil(float64(n)/chunk)) + threads
	if got := s.Counters["sched.chunks"]; got != wantChunks {
		t.Fatalf("sched.chunks = %v, want %v", got, wantChunks)
	}
	if got := s.Histograms["sched.call_ns"].Count; got != 2 {
		t.Fatalf("sched.call_ns count = %d, want 2", got)
	}
	idle := s.Histograms["sched.worker_idle_ns"]
	if idle.Count != 2 {
		t.Fatalf("sched.worker_idle_ns count = %d, want 2", idle.Count)
	}
	if idle.Min < 0 {
		t.Fatalf("sched.worker_idle_ns min = %v, negative idle must be clamped", idle.Min)
	}
}

// TestBodyPanicReachesCaller: a panic in a loop body surfaces as a panic on
// the goroutine that issued the loop, after the join, with the raising
// participant's stack in the message — while another participant is still
// inside its own chunk (two are forced here: whoever holds chunk 0 stays in
// the body until the other has taken chunk 1 and is about to panic). Pool
// workers survive it: the pool does not shrink and the next loop recruits
// again.
func TestBodyPanicReachesCaller(t *testing.T) {
	withProcs(t, 4)
	ForRange(64, 4, 1, func(lo, hi int) {}) // start the workers
	before := poolWorkers()

	first := make(chan struct{}) // closed once chunk 0 is held
	var second atomic.Int64
	recovered := func() (r any) {
		defer func() { r = recover() }()
		ForRange(2, 2, 1, func(lo, hi int) {
			if lo == 0 {
				close(first)
				for second.Load() == 0 {
					runtime.Gosched()
				}
				return
			}
			<-first
			second.Add(1)
			panic("boom")
		})
		return nil
	}()
	msg, ok := recovered.(string)
	if !ok || !strings.Contains(msg, "boom") || !strings.Contains(msg, "sched: loop body panicked") {
		t.Fatalf("recovered %v, want the body's panic carried to the caller", recovered)
	}
	if got := poolWorkers(); got != before {
		t.Fatalf("pool has %d workers after a body panic, had %d", got, before)
	}
	var total atomic.Int64
	ForRange(1000, 4, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 1000 {
		t.Fatalf("loop after a body panic covered %d of 1000 elements", total.Load())
	}
}
