package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the persistent worker pool behind For/ForRange/
// ForStatic. Historically every parallel loop spawned `threads` fresh
// goroutines; a Mixen run issues thousands of parallel loops (three per
// Main-Phase iteration), so loop launch cost — goroutine creation, stack
// setup, scheduler churn — showed up directly in per-iteration time.
//
// The pool design:
//
//   - Workers are started lazily (first parallel loop) up to GOMAXPROCS-1
//     and then park forever on a channel, so launching a loop costs a
//     channel send (a wakeup), not a goroutine spawn.
//   - The CALLER always participates in its own loop, pulling chunks off
//     the shared cursor like any worker. Helpers are accelerators, never a
//     requirement: if every pool worker is busy (or the pool is empty on a
//     1-core host), the caller simply executes the whole iteration space
//     itself. This is what makes nested parallel loops deadlock-free — an
//     inner loop issued from inside a worker body never waits on workers.
//   - A panic in a loop body is carried to the caller: whichever
//     participant raised it, the remaining chunks are abandoned, the loop
//     joins, and the caller panics with the value and the original stack.
//     A pool worker never dies of a body's panic, and whoever issued the
//     loop can recover() from it knowing no helper is still in the body.
//   - Loop descriptors (loopJob) are recycled through a free list, so a
//     steady-state loop launch performs zero heap allocations — required
//     by the engine's zero-alloc Main-Phase contract.
//
// Completion uses a count of finished elements rather than a WaitGroup:
// a helper that wakes up late (after the cursor is exhausted) must be able
// to walk away without ever having registered, which Add/Wait cannot
// express race-free.

// tokenBacklog bounds queued wakeups. Sends are non-blocking: when the
// backlog is full the loop just runs with fewer helpers.
const tokenBacklog = 4096

var pool = struct {
	tokens  chan *loopJob
	started atomic.Int32
	freeMu  sync.Mutex
	free    []*loopJob
}{tokens: make(chan *loopJob, tokenBacklog)}

// loopJob is one parallel loop in flight, shared by the caller and any
// helpers that picked up its wakeup tokens.
type loopJob struct {
	n, chunk int64
	body     func(lo, hi int)
	// stop, when non-nil, requests cooperative early exit: once it reads
	// true, participants keep claiming chunks (the completion count must
	// still reach n for waiters to wake) but skip the body.
	stop *atomic.Bool
	// failed holds the first panic a body raised on any participant. Once
	// set, participants skip the remaining bodies (as under stop) and the
	// caller re-raises it after the join — on the goroutine that issued the
	// loop, where the panic can be recovered, with every helper out of the
	// body.
	failed atomic.Pointer[loopPanic]

	cursor    atomic.Int64 // next unclaimed index
	completed atomic.Int64 // finished elements; loop is done at n

	mu   sync.Mutex // guards the caller's completion wait
	cond sync.Cond  // signalled when completed reaches n

	instrumented bool
	busyNs       atomic.Int64 // Σ time spent inside body across participants
	participants atomic.Int32 // workers that executed >= 1 chunk

	// Lifecycle: refs counts who may still touch the job — the owner plus
	// every outstanding wakeup token. Whoever drops the last reference puts
	// the job on the free list, and nobody touches it after dropping their
	// own: a job on the free list must be unreachable, or a recycling owner
	// would race with a late-waking helper.
	refs atomic.Int32
}

// loopPanic is a body's panic value and the stack it was raised on.
type loopPanic struct {
	val   any
	stack []byte
}

func getJob() *loopJob {
	pool.freeMu.Lock()
	var j *loopJob
	if n := len(pool.free); n > 0 {
		j = pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
	}
	pool.freeMu.Unlock()
	if j == nil {
		j = &loopJob{}
		j.cond.L = &j.mu
	}
	return j
}

func putJob(j *loopJob) {
	j.body = nil
	j.stop = nil
	pool.freeMu.Lock()
	pool.free = append(pool.free, j)
	pool.freeMu.Unlock()
}

// maxHelpers caps pool-side parallelism: the caller occupies one P, so at
// most GOMAXPROCS-1 helpers can run simultaneously with it.
func maxHelpers() int {
	return runtime.GOMAXPROCS(0) - 1
}

// ensureWorkers lazily grows the pool to at least want parked workers.
func ensureWorkers(want int32) {
	for {
		cur := pool.started.Load()
		if cur >= want {
			return
		}
		if pool.started.CompareAndSwap(cur, cur+1) {
			go workerLoop()
		}
	}
}

// poolWorkers reports how many persistent workers have been started
// (test hook: reuse means this stays flat across loops).
func poolWorkers() int { return int(pool.started.Load()) }

// PoolStats is a point-in-time snapshot of the persistent worker pool,
// for metrics pollers. Workers is a high-water mark (workers never exit);
// QueuedWakeups and FreeJobs breathe with load.
type PoolStats struct {
	// Workers is the number of persistent workers started so far.
	Workers int
	// QueuedWakeups counts wakeup tokens sent but not yet picked up by a
	// parked worker — sustained growth means loops are being launched
	// faster than helpers can drain them.
	QueuedWakeups int
	// FreeJobs is the recycled loop-descriptor free list's size.
	FreeJobs int
}

// Stats snapshots the worker pool. Cheap enough to poll every second: one
// mutex acquisition and two atomic loads.
func Stats() PoolStats {
	pool.freeMu.Lock()
	free := len(pool.free)
	pool.freeMu.Unlock()
	return PoolStats{
		Workers:       int(pool.started.Load()),
		QueuedWakeups: len(pool.tokens),
		FreeJobs:      free,
	}
}

func workerLoop() {
	for j := range pool.tokens {
		j.run()
		if j.refs.Add(-1) == 0 {
			putJob(j)
		}
	}
}

// run pulls chunks off the job's cursor until the iteration space is
// exhausted. Called by the owner and by any helper that received a token.
func (j *loopJob) run() {
	n, chunk := j.n, j.chunk
	stop := j.stop
	var busy int64
	participated := false
	var lo, hi int64
	defer func() {
		if r := recover(); r != nil {
			j.failed.CompareAndSwap(nil, &loopPanic{r, debug.Stack()})
			j.complete(hi - lo)
			j.run() // keep claiming: the completion count must still reach n
		}
	}()
	for {
		lo = j.cursor.Add(chunk) - chunk
		if lo >= n {
			break
		}
		hi = lo + chunk
		if hi > n {
			hi = n
		}
		if (stop != nil && stop.Load()) || j.failed.Load() != nil {
			// Abandoned chunk: account it as completed without running the
			// body, so the waiter's completion count still reaches n.
			j.complete(hi - lo)
			continue
		}
		if j.instrumented {
			t0 := time.Now()
			j.body(int(lo), int(hi))
			busy += int64(time.Since(t0))
		} else {
			j.body(int(lo), int(hi))
		}
		participated = true
		j.complete(hi - lo)
	}
	if participated && j.instrumented {
		j.busyNs.Add(busy)
		j.participants.Add(1)
	}
}

// complete books k finished (or abandoned) elements and wakes the waiting
// caller when they were the last.
func (j *loopJob) complete(k int64) {
	if j.completed.Add(k) == j.n {
		// Empty critical section orders this signal against a waiter that
		// checked `completed` and is about to Wait.
		j.mu.Lock()
		//lint:ignore SA2001 intentional barrier, see the comment above
		j.mu.Unlock()
		j.cond.Broadcast()
	}
}

// runParallel executes body over [0, n) with dynamic chunking on the
// caller plus up to threads-1 pool helpers. It blocks until every element
// has been processed.
func runParallel(n, threads, chunk int, stop *atomic.Bool, body func(lo, hi int), in *instr) {
	j := getJob()
	j.n, j.chunk = int64(n), int64(chunk)
	j.body = body
	j.stop = stop
	j.cursor.Store(0)
	j.completed.Store(0)
	j.busyNs.Store(0)
	j.participants.Store(0)
	j.instrumented = in != nil
	j.failed.Store(nil)
	j.refs.Store(1) // the owner's

	var start time.Time
	if in != nil {
		start = time.Now()
	}

	helpers := threads - 1
	if cap := maxHelpers(); helpers > cap {
		helpers = cap
	}
	if helpers > 0 {
		ensureWorkers(int32(helpers))
		for i := 0; i < helpers; i++ {
			j.refs.Add(1)
			select {
			case pool.tokens <- j:
			default:
				// Backlog full: stop recruiting, the caller will absorb
				// the remaining work.
				j.refs.Add(-1)
				i = helpers
			}
		}
	}

	j.run()
	if j.completed.Load() < int64(n) {
		j.mu.Lock()
		for j.completed.Load() < int64(n) {
			j.cond.Wait()
		}
		j.mu.Unlock()
	}

	if in != nil {
		wall := time.Since(start)
		idle := time.Duration(int64(j.participants.Load()))*wall - time.Duration(j.busyNs.Load())
		if idle < 0 {
			idle = 0
		}
		in.record(int64((n+chunk-1)/chunk), wall, idle)
	}

	failed := j.failed.Load()
	if j.refs.Add(-1) == 0 {
		putJob(j)
	}
	if failed != nil {
		panic(fmt.Sprintf("sched: loop body panicked: %v\n%s", failed.val, failed.stack))
	}
}
