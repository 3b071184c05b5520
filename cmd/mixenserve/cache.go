// Serving-layer result cache and swappable engine state for mixenserve.
//
// Two layers compose here:
//
//   - engineState: everything that changes together when a new .mixp
//     partition is swapped in (engine, batcher, degree snapshot, epoch).
//     The server holds it behind an atomic pointer; every request loads
//     one consistent snapshot, and a swap retires the old state without
//     interrupting requests already running against it.
//   - result cache: an LRU (internal/servecache) keyed on
//     (algo, params, source, nodes list, epoch) holding shaped answers:
//     iterations, delta, the values at the requested nodes and the
//     top-maxTop list. A run is shaped once, before it is inserted, so a
//     hit copies O(K + len(nodes)) rows and reads no n-vector; it is
//     bit-identical to recomputing. Concurrent identical queries collapse
//     onto one engine run (singleflight).
package main

import (
	"context"
	"fmt"
	"time"

	"mixen"
	"mixen/internal/obs"
	"mixen/internal/servecache"
)

// engineState is one consistent serving snapshot: swap-on-publish
// replaces it wholesale (SIGHUP partition reload), so a request that
// loaded it mid-swap keeps a coherent (engine, batcher, epoch) triple.
type engineState struct {
	eng   *mixen.MixenEngine
	bat   *mixen.Batcher
	deg   []float64 // out-degree snapshot shared by every pagerank/ppr program
	n     int       // node count (graph or partition metadata)
	edges int64     // edge count (graph or partition metadata)
	part  *partitionStatus
	// epoch versions every cache key minted against this state: the
	// .mixp build epoch in partition mode, 0 in graph mode. A swap
	// changes the epoch, making entries from the old mapping
	// unreachable before the purge even runs.
	epoch int64
	me    *mixen.MappedEngine // non-nil in partition mode; closed on retire
}

func newEngineState(eng *mixen.MixenEngine, me *mixen.MappedEngine, deg []float64, n int, edges int64, part *partitionStatus, epoch int64, bcfg mixen.BatcherConfig) *engineState {
	return &engineState{
		eng:   eng,
		bat:   mixen.NewBatcher(eng, bcfg),
		deg:   deg,
		n:     n,
		edges: edges,
		part:  part,
		epoch: epoch,
		me:    me,
	}
}

// close flushes the batcher and releases the mapping (idempotent).
func (st *engineState) close() error {
	err := st.bat.Close()
	if st.me != nil {
		if cerr := st.me.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// state returns the current serving snapshot. Handlers load it once per
// request and thread it through, so a concurrent swap never mixes two
// engines inside one request.
func (s *server) state() *engineState { return s.st.Load() }

// swapMapped publishes a new mapped partition as the serving state and
// bumps the cache to its epoch — cached entries from the old epoch
// can never be served again (their keys embed the old epoch AND the
// purge reclaims them). The old state is retired, not closed: requests
// that loaded it before the swap are still running on it; Shutdown
// closes retired states after the drain.
func (s *server) swapMapped(me *mixen.MappedEngine) *engineState {
	st := mappedState(me, s.bcfg)
	old := s.st.Swap(st)
	if s.cache != nil {
		s.cache.SetEpoch(st.epoch)
	}
	s.retireMu.Lock()
	s.retired = append(s.retired, old)
	s.retireMu.Unlock()
	return old
}

// mappedState builds the serving snapshot for a mapped partition.
func mappedState(me *mixen.MappedEngine, bcfg mixen.BatcherConfig) *engineState {
	m := me.Meta()
	part := &partitionStatus{
		File:      me.PartitionPath(),
		Epoch:     m.Epoch,
		Side:      m.Side,
		AutoTuned: m.AutoTuned,
		Mapped:    me.MappedFromFile(),
	}
	return newEngineState(me.MixenEngine, me, me.OutDegrees(), m.N, m.GraphEdges, part, m.Epoch, bcfg)
}

// engineRun is one engine run before it is shaped: its result and the
// size of the batch it ran in (0 on runs that bypass the batcher).
type engineRun struct {
	res  *mixen.Result
	size int
}

// sourceRun is one shaped answer plus its serving metadata: the size of
// the batch it ran in (0 on hits) and whether the answer came from the
// cache or a collapsed flight instead of a run of the caller's own. The
// cache stores it as the run produced it; ans is shared by every request
// the entry serves and is never written after shaping.
type sourceRun struct {
	ans    sourceResult
	size   int
	cached bool
}

// answerSize accounts one cached answer: 16 bytes per (node, value) row
// plus struct and map-entry overhead.
func answerSize(ans sourceResult) int64 {
	return int64(len(ans.Top)+len(ans.Values))*16 + 128
}

// result is r as one response row: a copy of the shared answer carrying
// this request's source, batch size and cache flag, cut to its top rows.
// topK's order is total, so the first top rows of the top-maxTop list
// are exactly topK(values, top).
func (r sourceRun) result(src *uint32, top int) sourceResult {
	out := r.ans
	out.Source, out.BatchSize, out.Cached = src, r.size, r.cached
	out.Top = out.Top[:min(top, len(out.Top))]
	return out
}

// cachedAll answers the runs of one request through s.cache, one entry per
// key: a fresh entry is served as-is, a key some other request is
// computing is waited for (singleflight), and the keys left over are
// computed by ONE call of exec — handed their indices, ascending — then
// shaped for q and inserted. With the cache disabled it degrades to exec
// over every key, shaped the same way.
func (s *server) cachedAll(ctx context.Context, q querySpec, keys []string, exec func(ctx context.Context, idx []int) ([]engineRun, error)) ([]sourceRun, error) {
	run := func(ctx context.Context, idx []int) ([]sourceRun, error) {
		runs, err := exec(ctx, idx)
		if err != nil {
			return nil, err
		}
		out := make([]sourceRun, len(runs))
		for j, r := range runs {
			out[j] = sourceRun{ans: shape(r.res, q.nodes, s.cfg.maxTop, q.algo == "bfs"), size: r.size}
		}
		return out, nil
	}
	cache := s.cache
	if cache == nil {
		all := make([]int, len(keys))
		for i := range all {
			all[i] = i
		}
		return run(ctx, all)
	}
	tr := obs.TraceFromContext(ctx)
	lookupStart := time.Now()
	vals, outcomes, err := cache.GetOrComputeAll(ctx, keys, func(ctx context.Context, missing []int) ([]any, []int64, error) {
		runs, err := run(ctx, missing)
		if err != nil {
			return nil, nil, err
		}
		vals, sizes := make([]any, len(runs)), make([]int64, len(runs))
		for j, r := range runs {
			vals[j], sizes[j] = r, answerSize(r.ans)
		}
		return vals, sizes, nil
	})
	tr.AddSpan(obs.SpanCache, lookupStart)
	if err != nil {
		return nil, err
	}
	runs := make([]sourceRun, len(keys))
	for i, v := range vals {
		runs[i] = v.(sourceRun)
		if outcomes[i] != servecache.Miss {
			// Only the caller that computed the value reports the batch
			// it ran in.
			runs[i].size, runs[i].cached = 0, true
		}
	}
	return runs, nil
}

// exactParams builds the canonical key for one exact-mode run.
func exactParams(algo string, q querySpec, sources []uint32, epoch int64) servecache.Params {
	p := servecache.Params{Algo: algo, Mode: "exact", Epoch: epoch, Sources: sources, Nodes: q.nodes}
	switch algo {
	case "pagerank", "ppr":
		p.Damping, p.Tol, p.Iters = q.damping, q.tol, q.iters
	case "indegree":
		p.Iters = q.iters
	case "bfs":
		// BFS has no damping/tol and runs to fixpoint within the
		// iteration bound; the bound itself is not part of the answer.
	}
	return p
}

// fanOut runs fn(0..n-1) concurrently, waits for all of them and returns
// the first error. A panic in fn becomes that index's error, as in the
// Batcher: one bad program fails its own request, never the process.
func fanOut(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("mixenserve: run %d panicked: %v", i, r)
				}
			}()
			errs <- fn(i)
		}(i)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reloadPartition opens path and swaps it in (SIGHUP handler in main;
// tests drive swapMapped directly). Returns the new state's status.
func (s *server) reloadPartition(path string, engCfg mixen.Config) (*partitionStatus, error) {
	me, err := mixen.OpenPartition(path, engCfg)
	if err != nil {
		return nil, fmt.Errorf("reload %s: %w", path, err)
	}
	s.swapMapped(me)
	return s.state().part, nil
}
