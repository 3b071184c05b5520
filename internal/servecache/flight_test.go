package servecache

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// awaitCollapsed spins until n callers have joined flights in c: the
// event "the waiter is registered", which the tests below must see before
// they cancel a leader or let a compute finish.
func awaitCollapsed(c *Cache, n int64) {
	for c.Stats().Collapsed < n {
		runtime.Gosched()
	}
}

type callResult struct {
	val any
	out Outcome
	err error
}

// TestSingleflightLeaderCancelKeepsWaiters: the computation belongs to
// everyone waiting on it, not to the caller that happened to start it — a
// leader that cancels gets its own ctx error at once, while the collapsed
// caller that still has time gets the value, computed under a context that
// was never cancelled.
func TestSingleflightLeaderCancelKeepsWaiters(t *testing.T) {
	c := New("", 1<<20, 0, nil)
	computing := make(chan context.Context)
	release := make(chan struct{})
	slow := func(ctx context.Context) (any, int64, error) {
		computing <- ctx
		<-release
		return "v", 1, ctx.Err()
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan callResult, 1)
	go func() {
		v, out, err := c.GetOrCompute(leaderCtx, "k", slow)
		leader <- callResult{v, out, err}
	}()
	computeCtx := <-computing

	waiter := make(chan callResult, 1)
	go func() {
		v, out, err := c.GetOrCompute(context.Background(), "k", compute("other", 1))
		waiter <- callResult{v, out, err}
	}()
	awaitCollapsed(c, 1)

	cancelLeader()
	if r := <-leader; !errors.Is(r.err, context.Canceled) || r.out != Miss {
		t.Fatalf("cancelled leader: got (%v,%v,%v), want (Miss, context.Canceled)", r.val, r.out, r.err)
	}
	if computeCtx.Err() != nil {
		t.Fatal("the leader's cancellation reached a computation another caller is waiting for")
	}
	close(release)
	if r := <-waiter; r.err != nil || r.val != "v" || r.out != Collapsed {
		t.Fatalf("collapsed waiter: got (%v,%v,%v), want (v,Collapsed,nil)", r.val, r.out, r.err)
	}
	if v, ok := c.Get("k"); !ok || v != "v" {
		t.Fatalf("value not cached after the leader left: (%v,%v)", v, ok)
	}
}

// TestSingleflightCancelsWhenEveryWaiterLeft: a computation nobody waits
// for is cancelled, and its key is free for the next caller.
func TestSingleflightCancelsWhenEveryWaiterLeft(t *testing.T) {
	c := New("", 1<<20, 0, nil)
	computing := make(chan context.Context)
	abandoned := make(chan struct{})
	slow := func(ctx context.Context) (any, int64, error) {
		computing <- ctx
		<-ctx.Done()
		close(abandoned)
		return nil, 0, ctx.Err()
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, ctx := range []context.Context{ctxA, ctxB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.GetOrCompute(ctx, "k", slow); !errors.Is(err, context.Canceled) {
				t.Errorf("caller that gave up: err = %v, want context.Canceled", err)
			}
		}()
	}
	computeCtx := <-computing
	awaitCollapsed(c, 1)
	cancelA()
	if computeCtx.Err() != nil {
		t.Fatal("computation cancelled while one caller was still waiting")
	}
	cancelB()
	<-abandoned
	wg.Wait()
	if v, out, err := c.GetOrCompute(context.Background(), "k", compute("fresh", 1)); err != nil || v != "fresh" || out != Miss {
		t.Fatalf("after an abandoned flight: got (%v,%v,%v), want (fresh,Miss,nil)", v, out, err)
	}
}

// TestSingleflightPanicFailsEveryWaiter: a panicking compute must not
// leave its flight behind with done never closed — every caller gets an
// error, and a later call recomputes.
func TestSingleflightPanicFailsEveryWaiter(t *testing.T) {
	for _, leaderCtx := range []context.Context{context.Background(), t.Context()} {
		c := New("", 1<<20, 0, nil)
		const waiters = 3
		computing := make(chan struct{})
		release := make(chan struct{})
		results := make(chan callResult, 1+waiters)
		call := func(ctx context.Context, f func(context.Context) (any, int64, error)) {
			v, out, err := c.GetOrCompute(ctx, "k", f)
			results <- callResult{v, out, err}
		}
		go call(leaderCtx, func(context.Context) (any, int64, error) {
			close(computing)
			<-release
			panic("compute blew up")
		})
		<-computing
		for i := 0; i < waiters; i++ {
			go call(context.Background(), compute("other", 1))
		}
		awaitCollapsed(c, waiters)
		close(release)
		for i := 0; i < 1+waiters; i++ {
			if r := <-results; r.err == nil || !strings.Contains(r.err.Error(), "compute blew up") {
				t.Fatalf("caller %d of a panicking compute: got (%v,%v,%v), want the panic as an error", i, r.val, r.out, r.err)
			}
		}
		if v, out, err := c.GetOrCompute(context.Background(), "k", compute("ok", 1)); err != nil || v != "ok" || out != Miss {
			t.Fatalf("after a panicking compute: got (%v,%v,%v), want (ok,Miss,nil)", v, out, err)
		}
	}
}

// TestGetOrComputeAllSingleflight: the keys of one request are resolved
// together — hits served, a key another call is computing joined, and the
// rest handed to ONE compute call — and two requests that lead each
// other's keys do not wait on each other before computing.
func TestGetOrComputeAllSingleflight(t *testing.T) {
	c := New("", 1<<20, 0, nil)
	c.Put("hit", "cached", 1)

	// Request A leads "a" (and holds it in flight).
	aComputing := make(chan struct{})
	aRelease := make(chan struct{})
	aDone := make(chan callResult, 1)
	go func() {
		v, out, err := c.GetOrCompute(t.Context(), "a", func(context.Context) (any, int64, error) {
			close(aComputing)
			<-aRelease
			return "A", 1, nil
		})
		aDone <- callResult{v, out, err}
	}()
	<-aComputing

	// Request B wants all four; it must compute exactly x and y, once.
	keys := []string{"x", "hit", "a", "y"}
	var calls int
	bDone := make(chan struct{})
	var (
		vals []any
		outs []Outcome
		err  error
	)
	go func() {
		defer close(bDone)
		vals, outs, err = c.GetOrComputeAll(t.Context(), keys, func(_ context.Context, missing []int) ([]any, []int64, error) {
			calls++
			if len(missing) != 2 || missing[0] != 0 || missing[1] != 3 {
				t.Errorf("missing = %v, want [0 3]", missing)
			}
			// B's computation finishes while the key it collapsed on is
			// still in flight: leading and waiting are independent.
			return []any{"X", "Y"}, []int64{1, 1}, nil
		})
	}()
	awaitCollapsed(c, 1)
	for _, key := range []string{"x", "y"} {
		for {
			if _, ok := c.Get(key); ok {
				break
			}
			runtime.Gosched()
		}
	}
	close(aRelease)
	<-bDone
	if r := <-aDone; r.err != nil || r.val != "A" {
		t.Fatalf("request A: (%v,%v,%v)", r.val, r.out, r.err)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []any{"X", "cached", "A", "Y"}
	wantOuts := []Outcome{Miss, Hit, Collapsed, Miss}
	for i := range keys {
		if vals[i] != wantVals[i] || outs[i] != wantOuts[i] {
			t.Errorf("key %q: got (%v,%v), want (%v,%v)", keys[i], vals[i], outs[i], wantVals[i], wantOuts[i])
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}

	// A failing group compute fails the call and caches nothing.
	boom := errors.New("boom")
	if _, _, err := c.GetOrComputeAll(t.Context(), []string{"p", "q"}, func(context.Context, []int) ([]any, []int64, error) {
		return nil, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing group: err = %v, want boom", err)
	}
	if _, _, err := c.GetOrComputeAll(t.Context(), []string{"p", "q"}, func(context.Context, []int) ([]any, []int64, error) {
		return []any{"only one"}, []int64{1}, nil
	}); err == nil {
		t.Fatal("a compute that returns too few values must fail the call")
	}
	if _, ok := c.Get("p"); ok {
		t.Fatal("failed group left an entry behind")
	}
}
