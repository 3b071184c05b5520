package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mixen"
)

func testGraph(t testing.TB) *mixen.Graph {
	t.Helper()
	g, err := mixen.GenerateSkewed(mixen.SkewedConfig{
		N: 1500, M: 12000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t testing.TB, cfg serverConfig) *server {
	t.Helper()
	return newGraphServer(t, testGraph(t), cfg)
}

// newGraphServer serves g with cfg, shut down when the test ends.
func newGraphServer(t testing.TB, g *mixen.Graph, cfg serverConfig) *server {
	t.Helper()
	reg := mixen.NewMetricsRegistry()
	eng, err := mixen.New(g, mixen.Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(g, eng, reg, cfg, mixen.BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func get(s *server, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func decodeResponse(t *testing.T, rec *httptest.ResponseRecorder) queryResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	return resp
}

func TestParseQuery(t *testing.T) {
	cfg := serverConfig{}.withDefaults()
	const n = 1500
	valid := []string{
		"algo=pagerank",
		"algo=pagerank&damping=0.5&tol=1e-6&iters=50&top=0",
		"algo=pagerank&nodes=0,1,2&timeout=250ms",
		"algo=indegree",
		"algo=ppr&source=3",
		"algo=ppr&sources=1,2,3&top=5",
		"algo=bfs&source=0",
		"algo=bfs&sources=0,1499",
	}
	for _, q := range valid {
		v, _ := url.ParseQuery(q)
		if _, err := parseQuery(v, n, cfg); err != nil {
			t.Errorf("parseQuery(%q) = %v, want ok", q, err)
		}
	}
	invalid := []string{
		"",                          // no algo
		"algo=rank",                 // unknown algo
		"algo=ppr",                  // missing source
		"algo=pagerank&source=1",    // source on a sourceless algo
		"algo=ppr&source=1500",      // out of range
		"algo=ppr&source=-1",        // not a uint32
		"algo=ppr&source=x",         // not a number
		"algo=pagerank&damping=0",   // open interval
		"algo=pagerank&damping=1",   // open interval
		"algo=pagerank&damping=NaN", // NaN rejected
		"algo=pagerank&tol=-1",
		"algo=pagerank&tol=Inf",  // a one-iteration answer labelled exact
		"algo=pagerank&tol=-Inf", // likewise
		"algo=ppr&source=1&mode=approx",
		"algo=ppr&source=1&mode=refine",
		"algo=pagerank&iters=0",
		"algo=pagerank&iters=999999", // over maxIters
		"algo=pagerank&top=-1",
		"algo=pagerank&top=999999", // over maxTop
		"algo=pagerank&timeout=0s",
		"algo=pagerank&timeout=-1s",
		"algo=pagerank&timeout=bogus",
		"algo=pagerank&nodes=1500", // out of range
	}
	for _, q := range invalid {
		v, _ := url.ParseQuery(q)
		if _, err := parseQuery(v, n, cfg); err == nil {
			t.Errorf("parseQuery(%q) succeeded, want error", q)
		}
	}

	// On an empty graph every id is out of range: nodes= and sources= are
	// rejected like any other bad id, not passed on to index a 0-length
	// result.
	for _, q := range []string{"algo=pagerank&nodes=5", "algo=pagerank&nodes=0", "algo=indegree&nodes=0", "algo=ppr&source=0"} {
		v, _ := url.ParseQuery(q)
		if _, err := parseQuery(v, 0, cfg); err == nil {
			t.Errorf("parseQuery(%q) on a 0-node graph succeeded, want error", q)
		}
	}
	if _, err := parseQuery(url.Values{"algo": {"pagerank"}}, 0, cfg); err != nil {
		t.Errorf("pagerank with no ids on a 0-node graph: %v, want ok", err)
	}

	// A request asking past maxTimeout is clamped, not rejected: the
	// server enforces its ceiling silently.
	v, _ := url.ParseQuery("algo=pagerank&timeout=10h")
	spec, err := parseQuery(v, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.timeout != cfg.maxTimeout {
		t.Fatalf("timeout = %v, want clamped to %v", spec.timeout, cfg.maxTimeout)
	}
}

// TestQueryEndpoints drives each algorithm through the full HTTP handler
// and checks the served values against the library's direct answers.
func TestQueryEndpoints(t *testing.T) {
	s := newTestServer(t, serverConfig{useBatcher: true})

	t.Run("pagerank", func(t *testing.T) {
		want, err := mixen.PageRank(s.g, 0.85, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		resp := decodeResponse(t, get(s, "/v1/query?algo=pagerank&iters=20&tol=0&top=3&nodes=7"))
		if len(resp.Results) != 1 {
			t.Fatalf("got %d results, want 1", len(resp.Results))
		}
		r := resp.Results[0]
		if r.Iterations != 20 {
			t.Fatalf("iterations = %d, want 20", r.Iterations)
		}
		if len(r.Values) != 1 || r.Values[0].Node != 7 || r.Values[0].Value != want[7] {
			t.Fatalf("values = %+v, want node 7 = %v", r.Values, want[7])
		}
		if len(r.Top) != 3 {
			t.Fatalf("top has %d entries, want 3", len(r.Top))
		}
		if r.Top[0].Value < r.Top[1].Value || r.Top[1].Value < r.Top[2].Value {
			t.Fatalf("top not descending: %+v", r.Top)
		}
	})

	t.Run("ppr-batch", func(t *testing.T) {
		resp := decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=3,7,11&iters=15&tol=0&top=2"))
		if len(resp.Results) != 3 {
			t.Fatalf("got %d results, want 3", len(resp.Results))
		}
		wants, err := mixen.PersonalizedPageRanks(s.g, []uint32{3, 7, 11}, 0.85, 0, 15)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resp.Results {
			if r.Source == nil || *r.Source != []uint32{3, 7, 11}[i] {
				t.Fatalf("result %d source = %v", i, r.Source)
			}
			if len(r.Top) != 2 {
				t.Fatalf("result %d: top has %d entries, want 2", i, len(r.Top))
			}
			if got, want := r.Top[0].Value, wants[i][r.Top[0].Node]; got != want {
				t.Fatalf("result %d: top value %v, want %v", i, got, want)
			}
		}
		// Three same-ring queries submitted together should fuse.
		if resp.Results[0].BatchSize < 3 {
			t.Fatalf("batch size %d, want >= 3 (queries should fuse)", resp.Results[0].BatchSize)
		}
	})

	t.Run("bfs", func(t *testing.T) {
		resp := decodeResponse(t, get(s, "/v1/query?algo=bfs&source=0&top=4"))
		r := resp.Results[0]
		if len(r.Top) == 0 {
			t.Fatal("bfs returned no reachable nodes")
		}
		if r.Top[0].Node != 0 || r.Top[0].Value != 0 {
			t.Fatalf("closest node should be the source at hop 0, got %+v", r.Top[0])
		}
		for i := 1; i < len(r.Top); i++ {
			if r.Top[i].Value < r.Top[i-1].Value {
				t.Fatalf("bfs top not ascending: %+v", r.Top)
			}
		}
	})

	t.Run("indegree", func(t *testing.T) {
		want, err := mixen.InDegree(s.g)
		if err != nil {
			t.Fatal(err)
		}
		resp := decodeResponse(t, get(s, "/v1/query?algo=indegree&nodes=5&top=1"))
		if got := resp.Results[0].Values[0].Value; got != want[5] {
			t.Fatalf("indegree[5] = %v, want %v", got, want[5])
		}
	})

	t.Run("bad-request", func(t *testing.T) {
		if rec := get(s, "/v1/query?algo=nope"); rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", rec.Code)
		}
	})
}

// TestAdmissionShedding saturates the server (both execution slots and the
// queue are held) and checks that the next request is shed with 429 +
// Retry-After and booked in server.shed_total.
func TestAdmissionShedding(t *testing.T) {
	s := newTestServer(t, serverConfig{maxConcurrent: 1, maxQueue: 1})

	// Occupy the only execution slot and the only queue seat directly.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.queued.Add(1)
	defer s.queued.Add(-1)

	rec := get(s, "/v1/query?algo=pagerank&iters=1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if got := s.shed.Value(); got != 1 {
		t.Fatalf("server.shed_total = %d, want 1", got)
	}
}

// TestQueuedRequestTimesOut: with the execution slot held and queue space
// available, a queued request whose deadline expires while waiting is
// answered 504 without ever running.
func TestQueuedRequestTimesOut(t *testing.T) {
	s := newTestServer(t, serverConfig{maxConcurrent: 1, maxQueue: 4})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	rec := get(s, "/v1/query?algo=pagerank&iters=1&timeout=20ms")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", rec.Code, rec.Body.String())
	}
	if got := s.deadlines.Value(); got != 1 {
		t.Fatalf("server.deadline_total = %d, want 1", got)
	}
	if got := s.queueDepth.Value(); got != 0 {
		t.Fatalf("queue depth %d after timeout, want 0", got)
	}
}

// TestQueryDeadlineMidRun: a deadline short enough to expire inside the
// engine run surfaces as 504 — the cooperative cancel path end to end.
func TestQueryDeadlineMidRun(t *testing.T) {
	s := newTestServer(t, serverConfig{maxIters: 100_000_000, useBatcher: false})
	rec := get(s, "/v1/query?algo=pagerank&iters=100000000&tol=0&timeout=30ms")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", rec.Code, rec.Body.String())
	}
}

// TestGracefulDrain starts in-flight queries, begins the drain, and checks
// the contract: readiness flips to 503 immediately, new queries are
// rejected, in-flight ones complete normally, and Shutdown returns only
// after they have.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, serverConfig{maxConcurrent: 4, maxQueue: 4, maxIters: 100_000, useBatcher: true})

	if rec := get(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", rec.Code)
	}

	// Launch queries slow enough to still be running when the drain
	// starts (tol=0 disables convergence, so they run all iterations).
	const inflight = 3
	recs := make([]*httptest.ResponseRecorder, inflight)
	var wg sync.WaitGroup
	started := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			recs[i] = get(s, fmt.Sprintf("/v1/query?algo=ppr&source=%d&iters=2000&tol=0&timeout=20s", i))
		}(i)
	}
	for i := 0; i < inflight; i++ {
		<-started
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	wg.Wait()

	for i, rec := range recs {
		// A query may have been issued a hair after draining flipped; both
		// full completion and a 503 rejection honor the contract. What must
		// never happen is an error from a torn run.
		if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("in-flight query %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
	}
	if rec := get(s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", rec.Code)
	}
	if rec := get(s, "/v1/query?algo=pagerank&iters=1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d, want 503", rec.Code)
	}
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (liveness is not readiness)", rec.Code)
	}
}

// FuzzServeQuery hammers the request decoder with arbitrary query strings:
// it must never panic, and anything it accepts must respect the server's
// configured bounds.
func FuzzServeQuery(f *testing.F) {
	seeds := []string{
		"algo=pagerank",
		"algo=pagerank&damping=0.5&tol=1e-6&iters=50&top=7&timeout=250ms",
		"algo=ppr&sources=1,2,3&top=5",
		"algo=bfs&source=0",
		"algo=indegree&nodes=1,2",
		"algo=pagerank&nodes=5",
		"algo=ppr&source=4294967295",
		"algo=pagerank&damping=NaN&tol=Inf",
		"algo=pagerank&iters=-1&top=99999999999999999999",
		"algo=bfs&sources=" + string(make([]byte, 64)),
		"a%zz=%%%",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cfg := serverConfig{}.withDefaults()
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, n := range []int{1000, 0} {
			checkSpec(t, v, n, cfg)
		}
	})
}

// checkSpec parses v against an n-node graph and fails t if parseQuery
// accepts anything outside the server's bounds.
func checkSpec(t *testing.T, v url.Values, n int, cfg serverConfig) {
	t.Helper()
	spec, err := parseQuery(v, n, cfg)
	if err != nil {
		return
	}
	if spec.iters < 1 || spec.iters > cfg.maxIters {
		t.Fatalf("accepted iters %d outside [1, %d]", spec.iters, cfg.maxIters)
	}
	if spec.top < 0 || spec.top > cfg.maxTop {
		t.Fatalf("accepted top %d outside [0, %d]", spec.top, cfg.maxTop)
	}
	if spec.timeout <= 0 || spec.timeout > cfg.maxTimeout {
		t.Fatalf("accepted timeout %v outside (0, %v]", spec.timeout, cfg.maxTimeout)
	}
	if math.IsInf(spec.tol, 0) || !(spec.tol >= 0) {
		t.Fatalf("accepted tol %v, want finite and >= 0", spec.tol)
	}
	if spec.damping <= 0 || spec.damping >= 1 {
		t.Fatalf("accepted damping %v outside (0, 1)", spec.damping)
	}
	if len(spec.sources) > cfg.maxSources {
		t.Fatalf("accepted %d sources, cap %d", len(spec.sources), cfg.maxSources)
	}
	for _, id := range append(spec.sources, spec.nodes...) {
		if int(id) >= n {
			t.Fatalf("accepted out-of-range id %d on a %d-node graph", id, n)
		}
	}
	if needs := algoNeedsSource[spec.algo]; needs && len(spec.sources) == 0 {
		t.Fatalf("accepted %q without sources", spec.algo)
	}
}

// pprTrace returns the newest completed ppr trace in /debug/traces.
func pprTrace(t *testing.T, s *server) mixen.TraceSnapshot {
	t.Helper()
	rec := get(s, "/debug/traces?outcome=ok")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var body struct {
		Capacity int                   `json:"capacity"`
		Traces   []mixen.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/traces JSON: %v", err)
	}
	for _, tr := range body.Traces { // newest first
		if tr.Op == "ppr" {
			return tr
		}
	}
	t.Fatalf("no completed ppr trace among %d in the ring", len(body.Traces))
	return mixen.TraceSnapshot{}
}

func spanKinds(tr mixen.TraceSnapshot) map[string]int {
	kinds := map[string]int{}
	for _, sp := range tr.Spans {
		kinds[string(sp.Kind)]++
	}
	return kinds
}

// TestTracingEndToEnd issues a traced batched query and checks the whole
// observability contract: the trace lands in /debug/traces with the span
// kinds the serving path promises (admission, queue, fuse, iteration,
// demux) and its request id matches the access-log line for the same
// request. A lone query is not fused, and its trace says so: a queue span
// (its dispatch on an idle server), the engine's spans, batch size 1 and
// neither a fuse nor a demux span.
func TestTracingEndToEnd(t *testing.T) {
	var accessBuf syncBuffer
	s := newTestServer(t, serverConfig{
		useBatcher:  true,
		traceSample: 1,
		accessLog:   &accessBuf,
	})

	resp := decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=3,7,11&iters=15&tol=0&top=2"))
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	tr := pprTrace(t, s)
	if tr.Outcome != "ok" {
		t.Fatalf("trace = %+v, want outcome=ok", tr)
	}
	if tr.BatchSize != 3 {
		t.Errorf("trace batch size = %d, want 3 (fused)", tr.BatchSize)
	}
	kinds := spanKinds(tr)
	for kind, want := range map[string]int{"admission": 1, "queue": 3, "fuse": 1, "iteration": 15, "demux": 1} {
		if kinds[kind] != want {
			t.Errorf("fused trace has %d %q spans, want %d; have %v", kinds[kind], kind, want, kinds)
		}
	}

	decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=42&iters=15&tol=0&top=2"))
	lone := pprTrace(t, s)
	if lone.ID == tr.ID || lone.BatchSize != 1 {
		t.Fatalf("lone trace id %d (fused one %d) batch size %d, want a new trace of batch size 1", lone.ID, tr.ID, lone.BatchSize)
	}
	kinds = spanKinds(lone)
	for kind, want := range map[string]int{"admission": 1, "queue": 1, "fuse": 0, "iteration": 15, "demux": 0} {
		if kinds[kind] != want {
			t.Errorf("lone trace has %d %q spans, want %d; have %v", kinds[kind], kind, want, kinds)
		}
	}

	line := accessBuf.String()
	if line == "" {
		t.Fatal("access log is empty")
	}
	wantID := fmt.Sprintf("id=%d ", tr.ID)
	if !strings.Contains(line, wantID) {
		t.Errorf("access log %q does not contain %q (trace/access id mismatch)", line, wantID)
	}
	for _, frag := range []string{"algo=ppr", "outcome=ok", "queue_wait_us=", "total_us=", "batch="} {
		if !strings.Contains(line, frag) {
			t.Errorf("access log %q missing %q", line, frag)
		}
	}
}

// TestTracingOffKeepsRingEmpty: with sampling off, queries still succeed,
// ids still advance, and nothing lands in the ring.
func TestTracingOffKeepsRingEmpty(t *testing.T) {
	s := newTestServer(t, serverConfig{useBatcher: true})
	decodeResponse(t, get(s, "/v1/query?algo=pagerank&iters=5&tol=0"))
	rec := get(s, "/debug/traces")
	var body struct {
		Traces []mixen.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/traces JSON: %v", err)
	}
	if len(body.Traces) != 0 {
		t.Errorf("tracing off but ring holds %d traces", len(body.Traces))
	}
}

// TestAccessLogOutcomes checks the outcome field across the error paths.
func TestAccessLogOutcomes(t *testing.T) {
	var accessBuf syncBuffer
	s := newTestServer(t, serverConfig{maxConcurrent: 1, maxQueue: 1, accessLog: &accessBuf})

	get(s, "/v1/query?algo=nope") // bad_request
	s.sem <- struct{}{}
	s.queued.Add(1)
	get(s, "/v1/query?algo=pagerank&iters=1") // shed
	s.queued.Add(-1)
	get(s, "/v1/query?algo=pagerank&iters=1&timeout=20ms") // deadline (queued)
	<-s.sem

	logged := accessBuf.String()
	for _, want := range []string{"outcome=bad_request", "outcome=shed", "outcome=deadline"} {
		if !strings.Contains(logged, want) {
			t.Errorf("access log missing %q:\n%s", want, logged)
		}
	}
}

// TestPrometheusEndpoint scrapes /metrics?format=prom off the serving mux
// and validates the exposition shape.
func TestPrometheusEndpoint(t *testing.T) {
	s := newTestServer(t, serverConfig{useBatcher: true})
	decodeResponse(t, get(s, "/v1/query?algo=pagerank&iters=5&tol=0"))

	rec := get(s, "/metrics?format=prom")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	lineRe := regexp.MustCompile(`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="([0-9]+|\+Inf)"\})? -?[0-9]+)$`)
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !lineRe.MatchString(line) {
			t.Errorf("line %d not valid exposition: %q", ln+1, line)
		}
	}
	if !strings.Contains(body, "server_requests_total 1") {
		t.Errorf("exposition missing server_requests_total:\n%.500s", body)
	}
	// The plain JSON endpoint must be unaffected.
	var snap map[string]any
	if err := json.Unmarshal(get(s, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Errorf("/metrics JSON broken: %v", err)
	}
}

// TestWindowedSLOGauges drives requests (one ok, one error) and checks the
// sampled gauges reflect the live window.
func TestWindowedSLOGauges(t *testing.T) {
	s := newTestServer(t, serverConfig{useBatcher: true})
	decodeResponse(t, get(s, "/v1/query?algo=pagerank&iters=5&tol=0"))
	get(s, "/v1/query?algo=nope") // error → errWindow

	s.sampleSLO()
	if got := s.winRequests.Value(); got != 2 {
		t.Errorf("window_requests = %d, want 2", got)
	}
	if got := s.winErrors.Value(); got != 1 {
		t.Errorf("window_errors = %d, want 1", got)
	}
	if got := s.winErrPermille.Value(); got != 500 {
		t.Errorf("window_error_permille = %d, want 500", got)
	}
	if s.winP50.Value() <= 0 || s.winP99.Value() < s.winP50.Value() {
		t.Errorf("window percentiles implausible: p50=%d p99=%d", s.winP50.Value(), s.winP99.Value())
	}
}

// TestSchedPoolSampler: the sched gauges must be populated after a run.
func TestSchedPoolSampler(t *testing.T) {
	s := newTestServer(t, serverConfig{useBatcher: true})
	decodeResponse(t, get(s, "/v1/query?algo=pagerank&iters=5&tol=0"))
	sample := schedPoolSampler(s.reg)
	sample()
	st := mixen.SchedPoolStats()
	if got := s.reg.Gauge("sched.pool_workers").Value(); got != int64(st.Workers) {
		t.Errorf("sched.pool_workers = %d, want %d", got, st.Workers)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the access logger writes
// from handler goroutines while tests read.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// BenchmarkServeQuery is the end-to-end serving hot path: decode, admit,
// run one batched PPR query on the shared engine, shape and encode.
func BenchmarkServeQuery(b *testing.B) {
	s := newTestServer(b, serverConfig{useBatcher: true})
	req := httptest.NewRequest(http.MethodGet, "/v1/query?algo=ppr&source=3&iters=10&tol=0&top=5", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServeShed is the load-shed fast path: with the server
// saturated, a 429 must cost microseconds, not an engine run.
func BenchmarkServeShed(b *testing.B) {
	s := newTestServer(b, serverConfig{maxConcurrent: 1, maxQueue: 0})
	s.sem <- struct{}{} // hold the only slot; queue capacity is zero
	defer func() { <-s.sem }()
	req := httptest.NewRequest(http.MethodGet, "/v1/query?algo=pagerank&iters=1", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			b.Fatalf("status %d, want 429", rec.Code)
		}
	}
}

// TestEightSourceMissIsOneRun: the lanes of one request reach the batcher
// as one group, so an all-miss eight-source request on an idle server is
// exactly ONE engine run of width 8 — with the cache (one entry and one
// singleflight per source) and without it. A later request that shares
// three of the sources runs only the five it is missing, again as one run.
func TestEightSourceMissIsOneRun(t *testing.T) {
	for name, cacheBytes := range map[string]int64{"cache": 1 << 22, "no-cache": 0} {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, serverConfig{useBatcher: true, cacheBytes: cacheBytes})
			runs, flushes := s.reg.Counter("core.runs"), s.reg.Counter("batch.flushes")

			resp := decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=3,7,11,19,23,42,99,5&iters=15&tol=0&top=2"))
			if len(resp.Results) != 8 {
				t.Fatalf("got %d results, want 8", len(resp.Results))
			}
			for i, r := range resp.Results {
				if r.BatchSize != 8 || r.Cached {
					t.Errorf("result %d: batch_size %d cached %v, want 8 and a run of its own", i, r.BatchSize, r.Cached)
				}
			}
			if runs.Value() != 1 || flushes.Value() != 1 {
				t.Fatalf("%d engine runs in %d flushes for an eight-source all-miss request, want 1 in 1", runs.Value(), flushes.Value())
			}
			if got := s.reg.Counter("batch.flushes_deadline").Value(); got != 0 {
				t.Errorf("batch.flushes_deadline = %d, want 0: the group is dispatched on arrival", got)
			}
			if cacheBytes == 0 {
				return
			}

			resp = decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=3,1,7,2,11,4,6,8&iters=15&tol=0&top=2"))
			for i, r := range resp.Results {
				shared := *r.Source == 3 || *r.Source == 7 || *r.Source == 11
				if r.Cached != shared || (shared && r.BatchSize != 0) || (!shared && r.BatchSize != 5) {
					t.Errorf("result %d (source %d): batch_size %d cached %v", i, *r.Source, r.BatchSize, r.Cached)
				}
			}
			if runs.Value() != 2 {
				t.Fatalf("%d engine runs after the overlapping request, want 2", runs.Value())
			}
			// The unfused path answers exactly what the fused one cached.
			lone := decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=1&iters=15&tol=0&top=2"))
			if !lone.Results[0].Cached || !reflect.DeepEqual(lone.Results[0].Top, resp.Results[1].Top) {
				t.Errorf("lone request for a cached source: %+v, want the cached %+v", lone.Results[0], resp.Results[1].Top)
			}
		})
	}
}
