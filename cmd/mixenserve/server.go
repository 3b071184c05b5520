// Server core for cmd/mixenserve: request decoding, admission control,
// query execution over a shared engine + batcher, and the HTTP handler
// set. main.go owns flags, the listener and signal-driven shutdown; this
// file owns everything a test can drive without a real socket.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mixen"
	"mixen/internal/algo"
	"mixen/internal/obs"
	"mixen/internal/servecache"
)

// serverConfig bounds what a single request may ask for and how much
// concurrent work the process admits.
type serverConfig struct {
	// maxConcurrent is the number of queries executing at once (engine
	// runs). Clamped to >= 1.
	maxConcurrent int
	// maxQueue bounds how many admitted-but-waiting requests may queue
	// behind the executing ones; request maxQueue+1 is shed with 429.
	maxQueue int
	// defaultTimeout applies when a request carries no timeout parameter;
	// maxTimeout caps what a request may ask for.
	defaultTimeout, maxTimeout time.Duration
	// maxIters caps the per-request iteration budget; defaultIters applies
	// when the request leaves iters unset.
	maxIters, defaultIters int
	// maxTop caps the top-K result size; maxSources caps the number of
	// sources one request may fan into.
	maxTop, maxSources int
	// useBatcher routes batchable queries through the shared Batcher; when
	// false every query runs directly on the engine.
	useBatcher bool
	// traceSample enables request-scoped tracing: 1 traces every request,
	// N > 1 one in N (head-based, by request id), 0 disables tracing
	// entirely (the default — the query path then allocates no trace
	// state). Request ids are minted either way.
	traceSample int
	// traceRing is the completed-trace ring capacity behind /debug/traces
	// (default 256).
	traceRing int
	// accessLog, when non-nil, receives one structured line per request
	// (id, algo, batch, queue wait, total latency, outcome).
	accessLog io.Writer
	// cacheBytes bounds the result cache (0 disables caching; queries
	// then always run). A hit serves the answer a previous engine run was
	// shaped into, so it is bit-identical to recomputing.
	cacheBytes int64
	// cacheTTL bounds a cached entry's lifetime. 0 picks the 5-minute
	// default when the cache is on; negative disables expiry.
	cacheTTL time.Duration
}

func (c serverConfig) withDefaults() serverConfig {
	if c.maxConcurrent <= 0 {
		c.maxConcurrent = 4
	}
	if c.maxQueue < 0 {
		c.maxQueue = 0
	}
	if c.defaultTimeout <= 0 {
		c.defaultTimeout = 2 * time.Second
	}
	if c.maxTimeout <= 0 {
		c.maxTimeout = 30 * time.Second
	}
	if c.maxIters <= 0 {
		c.maxIters = 1000
	}
	if c.defaultIters <= 0 {
		c.defaultIters = 100
	}
	if c.maxTop <= 0 {
		c.maxTop = 100
	}
	if c.maxSources <= 0 {
		c.maxSources = 64
	}
	if c.traceSample < 0 {
		c.traceSample = 0
	}
	if c.traceRing <= 0 {
		c.traceRing = 256
	}
	if c.cacheBytes < 0 {
		c.cacheBytes = 0
	}
	if c.cacheTTL == 0 && c.cacheBytes > 0 {
		c.cacheTTL = 5 * time.Minute
	}
	if c.cacheTTL < 0 {
		c.cacheTTL = 0 // no expiry
	}
	return c
}

// errShed marks a request rejected by admission control (429); errDraining
// marks one rejected because shutdown has begun (503).
var (
	errShed     = errors.New("mixenserve: saturated, request shed")
	errDraining = errors.New("mixenserve: draining, not accepting queries")
)

// server is one serving process: the swappable engine state, the result
// cache, the admission state and the metrics registry. Safe for
// concurrent requests; constructed once by newServer.
type server struct {
	// g is the source graph, or nil when serving a mapped .mixp partition
	// (partition mode needs only the node/edge scalars and the out-degree
	// snapshot, all carried by the file). Graph-mode servers are never
	// swapped, so g stays valid for the server's lifetime.
	g *mixen.Graph
	// st is the current serving snapshot (engine, batcher, degree
	// snapshot, epoch). Requests load it once; a partition swap
	// (swapMapped) publishes a replacement atomically.
	st   atomic.Pointer[engineState]
	bcfg mixen.BatcherConfig
	reg  *mixen.MetricsRegistry
	cfg  serverConfig

	// cache holds shaped per-source answers keyed on (algo, params,
	// source, nodes list, epoch); nil when disabled.
	cache *servecache.Cache

	// retired collects engine states replaced by swaps; Shutdown closes
	// them after the drain (requests loaded them before the swap).
	retireMu sync.Mutex
	retired  []*engineState

	// Admission: sem holds one token per executing query; queued counts
	// requests waiting for a token (bounded by cfg.maxQueue).
	sem    chan struct{}
	queued atomic.Int64

	// draining flips once at shutdown: /readyz turns 503 and new queries
	// are rejected while in-flight ones finish (tracked by wg). drainMu
	// orders request registration against the flip so wg.Add never races
	// wg.Wait: a handler registers (Add) and checks draining under the
	// lock, Shutdown sets draining under the lock before waiting.
	draining atomic.Bool
	drainMu  sync.Mutex
	wg       sync.WaitGroup

	mux *http.ServeMux

	// tracer mints request ids and (when sampling is on) records one
	// obs.Trace per sampled request into the /debug/traces ring. access,
	// when non-nil, gets one structured line per request (log.Logger
	// serializes concurrent writers).
	tracer *obs.Tracer
	access *log.Logger

	requests   *obs.Counter
	shed       *obs.Counter
	deadlines  *obs.Counter
	cancels    *obs.Counter
	queueDepth *obs.Gauge
	inflight   *obs.Gauge
	latencyNs  *obs.Histogram

	// Windowed SLO state: latWindow holds every request's total latency
	// over the last 10s, errWindow the error events over the same span.
	// sampleSLO (driven by the runtime poller) projects them into the
	// server.window_* gauges so /metrics reports live percentiles instead
	// of forever-cumulative ones.
	latWindow      *obs.Window
	errWindow      *obs.Window
	winP50         *obs.Gauge
	winP95         *obs.Gauge
	winP99         *obs.Gauge
	winRequests    *obs.Gauge
	winErrors      *obs.Gauge
	winErrPermille *obs.Gauge
}

// partitionStatus describes the mapped .mixp file behind a partition-mode
// server, surfaced through /healthz so operators can confirm which build
// (file, epoch, baked layout) a process is actually serving.
type partitionStatus struct {
	File      string `json:"file"`
	Epoch     int64  `json:"epoch"`
	Side      int    `json:"side"`
	AutoTuned bool   `json:"autotuned"`
	Mapped    bool   `json:"mapped"`
}

// newServer preprocesses nothing itself — it wires an already-built
// engine, graph and registry into a serving surface.
func newServer(g *mixen.Graph, eng *mixen.MixenEngine, reg *mixen.MetricsRegistry, cfg serverConfig, bcfg mixen.BatcherConfig) *server {
	return newServerWith(g, eng, mixen.OutDegrees(g), g.NumNodes(), g.NumEdges(), nil, reg, cfg, bcfg)
}

// newServerMapped wires a zero-copy mapped partition into a serving
// surface: no graph, no filter pass, no partitioning — the engine serves
// straight off the page cache. The partition's build epoch versions the
// result cache.
func newServerMapped(me *mixen.MappedEngine, reg *mixen.MetricsRegistry, cfg serverConfig, bcfg mixen.BatcherConfig) *server {
	cfg = cfg.withDefaults()
	return newServerState(nil, mappedState(me, bcfg), reg, cfg, bcfg)
}

func newServerWith(g *mixen.Graph, eng *mixen.MixenEngine, deg []float64, n int, edges int64, part *partitionStatus, reg *mixen.MetricsRegistry, cfg serverConfig, bcfg mixen.BatcherConfig) *server {
	cfg = cfg.withDefaults()
	// Graph-built engines have no build epoch; 0 versions their cache
	// (graph-mode servers never swap, so the epoch never changes).
	st := newEngineState(eng, nil, deg, n, edges, part, 0, bcfg)
	return newServerState(g, st, reg, cfg, bcfg)
}

func newServerState(g *mixen.Graph, st *engineState, reg *mixen.MetricsRegistry, cfg serverConfig, bcfg mixen.BatcherConfig) *server {
	s := &server{
		g:    g,
		bcfg: bcfg,
		reg:  reg,
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.maxConcurrent),

		tracer: obs.NewTracer(cfg.traceRing, cfg.traceSample),

		requests:   reg.Counter("server.requests_total"),
		shed:       reg.Counter("server.shed_total"),
		deadlines:  reg.Counter("server.deadline_total"),
		cancels:    reg.Counter("server.cancel_total"),
		queueDepth: reg.Gauge("server.queue_depth"),
		inflight:   reg.Gauge("server.inflight"),
		latencyNs:  reg.Histogram("server.latency_ns"),

		latWindow:      obs.NewWindow(obs.DefaultWindowSlots, obs.DefaultWindowSlotDur),
		errWindow:      obs.NewWindow(obs.DefaultWindowSlots, obs.DefaultWindowSlotDur),
		winP50:         reg.Gauge("server.window_p50_ns"),
		winP95:         reg.Gauge("server.window_p95_ns"),
		winP99:         reg.Gauge("server.window_p99_ns"),
		winRequests:    reg.Gauge("server.window_requests"),
		winErrors:      reg.Gauge("server.window_errors"),
		winErrPermille: reg.Gauge("server.window_error_permille"),
	}
	s.st.Store(st)
	if cfg.cacheBytes > 0 {
		s.cache = servecache.New("server.cache", cfg.cacheBytes, cfg.cacheTTL, reg)
		s.cache.SetEpoch(st.epoch)
	}
	if cfg.accessLog != nil {
		s.access = log.New(cfg.accessLog, "", 0)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mixen.RegisterDebugHandlers(mux, reg)
	obs.RegisterTraceHandler(mux, s.tracer.Ring())
	s.mux = mux
	return s
}

// sampleSLO projects the sliding windows into gauges. Called by the
// runtime poller once per second (tests call it directly).
func (s *server) sampleSLO() {
	lat := s.latWindow.Stats()
	s.winP50.Set(int64(lat.P50))
	s.winP95.Set(int64(lat.P95))
	s.winP99.Set(int64(lat.P99))
	s.winRequests.Set(lat.Count)
	errs := s.errWindow.Stats().Count
	s.winErrors.Set(errs)
	var permille int64
	if lat.Count > 0 {
		permille = errs * 1000 / lat.Count
	}
	s.winErrPermille.Set(permille)
}

// schedPoolSampler returns a poller func keeping the worker-pool gauges
// (persistent workers, queued wakeups, recycled loop descriptors) current
// in reg.
func schedPoolSampler(reg *mixen.MetricsRegistry) func() {
	workers := reg.Gauge("sched.pool_workers")
	queued := reg.Gauge("sched.pool_queued_wakeups")
	free := reg.Gauge("sched.pool_free_jobs")
	return func() {
		st := mixen.SchedPoolStats()
		workers.Set(int64(st.Workers))
		queued.Set(int64(st.QueuedWakeups))
		free.Set(int64(st.FreeJobs))
	}
}

// logAccess emits the structured per-request line:
//
//	id=7 algo=ppr batch=4 queue_wait_us=812 total_us=3377 outcome=ok
//
// queue_wait is the admission wait (time between asking for an execution
// slot and getting one); the time queued in the batcher behind in-flight
// runs is the queue span of the request's trace. No-op when -access-log is off.
func (s *server) logAccess(id uint64, algo string, batch int, wait, total time.Duration, outcome string) {
	if s.access == nil {
		return
	}
	s.access.Printf("id=%d algo=%s batch=%d queue_wait_us=%d total_us=%d outcome=%s",
		id, algo, batch, wait.Microseconds(), total.Microseconds(), outcome)
}

// Handler returns the server's HTTP handler (queries, health, debug).
func (s *server) Handler() http.Handler { return s.mux }

// Shutdown begins the drain: readiness flips to 503, queries already past
// admission run to completion (bounded by ctx), then the batcher flushes
// its pending queue and closes, along with every state retired by
// partition swaps. The HTTP listener itself is main's to stop; tests
// drive Shutdown directly.
func (s *server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		_ = s.closeStates()
		return ctx.Err()
	}
	return s.closeStates()
}

// closeStates closes the current engine state and every retired one.
func (s *server) closeStates() error {
	err := s.state().close()
	s.retireMu.Lock()
	retired := s.retired
	s.retired = nil
	s.retireMu.Unlock()
	for _, st := range retired {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// querySpec is one decoded /v1/query request.
type querySpec struct {
	algo    string
	sources []uint32
	damping float64
	tol     float64
	iters   int
	// itersSet records whether the request named iters explicitly;
	// indegree defaults to a single SpMV pass (the actual in-degree)
	// rather than the generic iteration default.
	itersSet bool
	top      int
	nodes    []uint32
	timeout  time.Duration
}

// algoNeedsSource lists the supported algorithms and whether they take
// source nodes.
var algoNeedsSource = map[string]bool{
	"pagerank": false,
	"indegree": false,
	"ppr":      true,
	"bfs":      true,
}

// parseQuery decodes and validates one request against the server bounds.
// n is the graph's node count (source/node ids must be below it). It is
// deliberately side-effect free — FuzzServeQuery drives it with arbitrary
// inputs and it must only ever return (spec, nil) or (zero, error).
func parseQuery(v url.Values, n int, cfg serverConfig) (querySpec, error) {
	q := querySpec{
		algo:    v.Get("algo"),
		damping: 0.85,
		tol:     1e-9,
		iters:   cfg.defaultIters,
		top:     10,
		timeout: cfg.defaultTimeout,
	}
	needsSource, ok := algoNeedsSource[q.algo]
	if !ok {
		return querySpec{}, fmt.Errorf("unknown algo %q (want pagerank, ppr, bfs or indegree)", q.algo)
	}
	var err error
	if q.sources, err = parseNodeList(v, "source", "sources", n, cfg.maxSources); err != nil {
		return querySpec{}, err
	}
	if needsSource && len(q.sources) == 0 {
		return querySpec{}, fmt.Errorf("algo %q requires source= or sources=", q.algo)
	}
	if !needsSource && len(q.sources) > 0 {
		return querySpec{}, fmt.Errorf("algo %q takes no source parameter", q.algo)
	}
	if raw := v.Get("damping"); raw != "" {
		if q.damping, err = strconv.ParseFloat(raw, 64); err != nil {
			return querySpec{}, fmt.Errorf("damping must be in (0, 1), got %q", raw)
		}
	}
	if raw := v.Get("tol"); raw != "" {
		if q.tol, err = strconv.ParseFloat(raw, 64); err != nil {
			return querySpec{}, fmt.Errorf("tol must be finite and >= 0, got %q", raw)
		}
	}
	if err := (algo.Args{N: n, Sources: q.sources, Rank: true, Damping: q.damping, Tol: q.tol}).Check(); err != nil {
		return querySpec{}, err
	}
	if raw := v.Get("iters"); raw != "" {
		q.iters, err = strconv.Atoi(raw)
		if err != nil || q.iters < 1 || q.iters > cfg.maxIters {
			return querySpec{}, fmt.Errorf("iters must be in [1, %d], got %q", cfg.maxIters, raw)
		}
		q.itersSet = true
	}
	if raw := v.Get("top"); raw != "" {
		q.top, err = strconv.Atoi(raw)
		if err != nil || q.top < 0 || q.top > cfg.maxTop {
			return querySpec{}, fmt.Errorf("top must be in [0, %d], got %q", cfg.maxTop, raw)
		}
	}
	if q.nodes, err = parseNodeList(v, "nodes", "", n, cfg.maxTop); err != nil {
		return querySpec{}, err
	}
	if mode := v.Get("mode"); mode != "" && mode != "exact" {
		return querySpec{}, fmt.Errorf("mode must be exact, got %q", mode)
	}
	if raw := v.Get("timeout"); raw != "" {
		q.timeout, err = time.ParseDuration(raw)
		if err != nil || q.timeout <= 0 {
			return querySpec{}, fmt.Errorf("timeout must be a positive duration, got %q", raw)
		}
		if q.timeout > cfg.maxTimeout {
			q.timeout = cfg.maxTimeout
		}
	}
	return q, nil
}

// parseNodeList reads a comma-separated node-id list from key (and, when
// altKey is set, merges the singular alternative), validating each id
// against n and capping the count.
func parseNodeList(v url.Values, key, altKey string, n, maxLen int) ([]uint32, error) {
	raw := v.Get(key)
	if altKey != "" {
		if alt := v.Get(altKey); alt != "" {
			if raw != "" {
				raw += "," + alt
			} else {
				raw = alt
			}
		}
	}
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	if len(parts) > maxLen {
		return nil, fmt.Errorf("%s: at most %d ids per request, got %d", key, maxLen, len(parts))
	}
	ids := make([]uint32, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s: bad node id %q", key, p)
		}
		if id >= uint64(n) {
			return nil, fmt.Errorf("%s: node %d out of range (graph has %d nodes)", key, id, n)
		}
		ids = append(ids, uint32(id))
	}
	return ids, nil
}

// admit acquires an execution slot: the fast path takes a free token, the
// slow path queues (bounded) until a token frees or ctx expires. The
// returned release must be called exactly once when ok.
func (s *server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return s.release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.maxQueue) {
		s.queueDepth.Set(s.queued.Add(-1))
		return nil, errShed
	}
	s.queueDepth.Set(s.queued.Load())
	select {
	case s.sem <- struct{}{}:
		s.queueDepth.Set(s.queued.Add(-1))
		s.inflight.Add(1)
		return s.release, nil
	case <-ctx.Done():
		s.queueDepth.Set(s.queued.Add(-1))
		return nil, ctx.Err()
	}
}

func (s *server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// nodeValue is one (node, value) pair in a response.
type nodeValue struct {
	Node  uint32  `json:"node"`
	Value float64 `json:"value"`
}

// sourceResult is one query's outcome (one per source for ppr/bfs).
type sourceResult struct {
	Source     *uint32 `json:"source,omitempty"`
	Iterations int     `json:"iterations"`
	Delta      float64 `json:"delta"`
	BatchSize  int     `json:"batch_size,omitempty"`
	// Cached marks an answer served from the result cache (or a
	// collapsed concurrent flight) instead of a fresh engine run.
	// Exact-mode cached answers are bit-identical to recomputing.
	Cached bool        `json:"cached,omitempty"`
	Top    []nodeValue `json:"top,omitempty"`
	Values []nodeValue `json:"values,omitempty"`
}

// queryResponse is the /v1/query response body.
type queryResponse struct {
	Algo      string         `json:"algo"`
	Nodes     int            `json:"graph_nodes"`
	Edges     int64          `json:"graph_edges"`
	ElapsedMs float64        `json:"elapsed_ms"`
	Results   []sourceResult `json:"results"`
}

// errorResponse is any non-2xx response body.
type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()

	// Every request gets an id (the access log and error responses can
	// correlate on it); only sampled requests additionally get a trace.
	// The deferred block is the single exit point for the per-request
	// observability state: windows, trace publication, access log.
	id := s.tracer.NextID()
	var (
		tr      *obs.Trace
		algo    string
		batch   int
		wait    time.Duration
		outcome = "error"
	)
	defer func() {
		total := time.Since(start)
		s.latWindow.ObserveDuration(total)
		if outcome != "ok" {
			s.errWindow.Observe(1)
		}
		s.tracer.Finish(tr, outcome)
		s.logAccess(id, algo, batch, wait, total, outcome)
	}()

	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		outcome = "draining"
		writeError(w, http.StatusServiceUnavailable, errDraining.Error(), 1)
		return
	}
	s.wg.Add(1)
	s.drainMu.Unlock()
	defer s.wg.Done()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		outcome = "bad_request"
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST", 0)
		return
	}
	if err := r.ParseForm(); err != nil {
		outcome = "bad_request"
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	// One state snapshot serves the whole request: a concurrent
	// partition swap must never mix two engines (or epochs) inside it.
	st := s.state()
	spec, err := parseQuery(r.Form, st.n, s.cfg)
	if err != nil {
		outcome = "bad_request"
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	algo = spec.algo
	tr = s.tracer.Start(id, spec.algo) // nil unless sampled

	// The request deadline covers queueing AND execution: a query that
	// spent its whole budget waiting for a slot is not run at all.
	ctx, cancel := context.WithTimeout(r.Context(), spec.timeout)
	defer cancel()

	admitStart := time.Now()
	release, err := s.admit(ctx)
	wait = time.Since(admitStart)
	if err != nil {
		if errors.Is(err, errShed) {
			outcome = "shed"
			s.shed.Inc()
			writeError(w, http.StatusTooManyRequests, err.Error(), 1)
			return
		}
		outcome = ctxOutcome(err)
		s.writeCtxError(w, err) // deadline or client disconnect while queued
		return
	}
	defer release()
	tr.AddSpan(obs.SpanAdmission, admitStart)
	ctx = obs.WithTrace(ctx, tr) // no-op (and no alloc) when tr is nil

	resp, err := s.execute(ctx, st, spec)
	s.latencyNs.ObserveDuration(time.Since(start))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			outcome = ctxOutcome(ctxErr)
			s.writeCtxError(w, ctxErr)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	outcome = "ok"
	for _, res := range resp.Results {
		if res.BatchSize > batch {
			batch = res.BatchSize
		}
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// ctxOutcome names a context error for traces and access logs.
func ctxOutcome(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "cancelled"
}

// statusClientClosedRequest is nginx's non-standard 499 for a client that
// went away; there is no standard code for "you cancelled it yourself".
const statusClientClosedRequest = 499

func (s *server) writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlines.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded", 0)
		return
	}
	s.cancels.Inc()
	writeError(w, statusClientClosedRequest, "request cancelled", 0)
}

func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, RetryAfter: retryAfter})
}

// execute runs one decoded query against the st snapshot and shapes the
// response. All four algorithms take one path: exec runs the keys the
// cache misses, cachedAll shapes those runs into answers (bit-identical
// on hits, singleflight-collapsed on concurrent misses), and each answer
// is cut to the request's top.
func (s *server) execute(ctx context.Context, st *engineState, q querySpec) (*queryResponse, error) {
	n := st.n
	var (
		keys []string
		exec func(ctx context.Context, idx []int) ([]engineRun, error)
	)
	switch q.algo {
	case "indegree":
		// InDegree's Scale (1) differs from the PageRank family's (1/deg),
		// so it must not share a fused batch — it runs directly. One SpMV
		// pass IS the in-degree; more iterations compute matrix powers, so
		// the generic default does not apply.
		if !q.itersSet {
			q.iters = 1
		}
		keys = []string{exactParams("indegree", q, nil, st.epoch).Key()}
		exec = func(ctx context.Context, _ []int) ([]engineRun, error) {
			res, err := st.eng.RunCtx(ctx, mixen.NewInDegreeProgram(q.iters))
			return []engineRun{{res: res}}, err
		}
	case "pagerank":
		keys = []string{exactParams("pagerank", q, nil, st.epoch).Key()}
		exec = s.batched(st, func(int) mixen.Program {
			return mixen.NewPageRankProgramShared(n, st.deg, q.damping, q.tol, q.iters)
		})
	case "ppr", "bfs":
		// One cache entry per source: a request for sources {a,b} and a
		// later one for {b,c} share b's answer. The sources that miss go to
		// the batcher as one lane group and fuse into one wide pass.
		keys = make([]string, len(q.sources))
		for i, src := range q.sources {
			keys[i] = exactParams(q.algo, q, []uint32{src}, st.epoch).Key()
		}
		exec = s.batched(st, func(i int) mixen.Program {
			src := q.sources[i]
			switch {
			case q.algo == "ppr":
				return mixen.NewPersonalizedPageRankProgramShared(n, st.deg, src, q.damping, q.tol, q.iters)
			case s.g != nil:
				return mixen.NewBFSProgram(s.g, src)
			default:
				// Partition mode: BFS only needs the node count for its
				// iteration bound.
				return mixen.NewBFSProgramForN(n, src)
			}
		})
	default:
		return nil, fmt.Errorf("unreachable algo %q", q.algo) // parseQuery validated
	}
	runs, err := s.cachedAll(ctx, q, keys, exec)
	if err != nil {
		return nil, err
	}
	resp := &queryResponse{Algo: q.algo, Nodes: n, Edges: st.edges, Results: make([]sourceResult, len(runs))}
	for i, run := range runs {
		var src *uint32
		if len(q.sources) > 0 {
			src = &q.sources[i]
		}
		resp.Results[i] = run.result(src, q.top)
	}
	return resp, nil
}

// batched is the exec of a request whose runs are width-1 programs —
// prog(i) builds the program of key i. The keys left over run TOGETHER:
// through the batcher as one lane group, so an all-miss request on an
// idle server is ONE fused run, or, with batching off, directly and
// concurrently.
func (s *server) batched(st *engineState, prog func(i int) mixen.Program) func(context.Context, []int) ([]engineRun, error) {
	return func(ctx context.Context, idx []int) ([]engineRun, error) {
		progs := make([]mixen.Program, len(idx))
		for j, i := range idx {
			progs[j] = prog(i)
		}
		outs := make([]engineRun, len(progs))
		if !s.cfg.useBatcher {
			err := fanOut(len(progs), func(i int) (err error) {
				outs[i].res, err = st.eng.RunCtx(ctx, progs[i])
				return err
			})
			return outs, err
		}
		futs, err := st.bat.SubmitAllCtx(ctx, progs)
		if err != nil {
			return nil, err
		}
		for i, fut := range futs {
			res, err := fut.WaitCtx(ctx)
			if err != nil {
				return nil, err
			}
			outs[i] = engineRun{res: res, size: fut.BatchSize()}
		}
		return outs, nil
	}
}

// shape projects one run into the answer a cache entry holds: the values
// at nodes, in request order, then the top-k list (highest value for link
// analysis, closest for BFS hops). Nodes BFS never reached carry +Inf,
// which JSON cannot encode; they are omitted from Values the same way
// topK skips them. The n-vector is not referenced afterwards.
func shape(res *mixen.Result, nodes []uint32, k int, ascending bool) sourceResult {
	out := sourceResult{Iterations: res.Iterations, Delta: res.Delta}
	for _, id := range nodes {
		if v := res.Values[id]; !math.IsInf(v, 0) {
			out.Values = append(out.Values, nodeValue{Node: id, Value: v})
		}
	}
	out.Top = topK(res.Values, k, ascending)
	return out
}

// topK selects the K extreme (node, value) pairs by linear insertion —
// O(nK) with K capped small by serverConfig.maxTop, no allocation beyond
// the result. Ascending selects smallest-first (BFS hop counts; +Inf
// unreachable nodes are skipped), descending selects largest-first. The
// order is total — ties go to the lower id — so topK(v, k) is a prefix of
// topK(v, K) for every k <= K (FuzzTopKPrefix), which lets one cached
// top-maxTop list serve every top.
func topK(values []float64, k int, ascending bool) []nodeValue {
	k = min(k, len(values))
	out := make([]nodeValue, 0, k)
	if k == 0 {
		return out
	}
	better := func(a, b float64) bool {
		if ascending {
			return a < b
		}
		return a > b
	}
	for i, v := range values {
		if ascending && math.IsInf(v, 1) {
			continue // unreachable
		}
		if len(out) == k && !better(v, out[k-1].Value) {
			continue
		}
		j := len(out)
		if j < k {
			out = append(out, nodeValue{})
		} else {
			j = k - 1
		}
		for j > 0 && better(v, out[j-1].Value) {
			out[j] = out[j-1]
			j--
		}
		out[j] = nodeValue{Node: uint32(i), Value: v}
	}
	return out
}

// healthzResponse is the /healthz body; partition is present only in
// partition mode, telling operators which mapped build is serving.
// Epoch versions the result cache (cache stats present only when the
// cache is enabled): after a partition swap, operators can confirm here
// that the serving epoch moved and the cache purged.
type healthzResponse struct {
	Status    string            `json:"status"`
	Epoch     int64             `json:"epoch"`
	Partition *partitionStatus  `json:"partition,omitempty"`
	Cache     *servecache.Stats `json:"cache,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.state()
	resp := healthzResponse{Status: "ok", Epoch: st.epoch, Partition: st.part}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &cs
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}
