package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mixen"
)

// cachedTestServer builds a graph-backed server with the result cache on.
func cachedTestServer(t testing.TB) *server {
	t.Helper()
	return newTestServer(t, serverConfig{cacheBytes: 1 << 22})
}

// valuesOf projects a response's per-node values into a map for
// comparison.
func valuesOf(t *testing.T, resp queryResponse) map[uint32]float64 {
	t.Helper()
	if len(resp.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(resp.Results))
	}
	out := map[uint32]float64{}
	for _, nv := range resp.Results[0].Values {
		out[nv.Node] = nv.Value
	}
	return out
}

// probeNodes is the node set the bit-identity tests pin down. JSON float
// encoding in Go is shortest-round-trip, so decoded values compare
// bit-exactly.
const probeNodes = "0,1,2,3,5,8,13,21,34,55,89,144,233,377,610,987,1499"

// sameAnswer reports whether two response rows carry the same answer bit
// for bit (source, iterations, delta, top list, node values); the
// serving metadata (batch size, cached) is not part of the answer.
func sameAnswer(a, b sourceResult) bool {
	if (a.Source == nil) != (b.Source == nil) || (a.Source != nil && *a.Source != *b.Source) ||
		a.Iterations != b.Iterations || math.Float64bits(a.Delta) != math.Float64bits(b.Delta) {
		return false
	}
	same := func(x, y []nodeValue) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Node != y[i].Node || math.Float64bits(x[i].Value) != math.Float64bits(y[i].Value) {
				return false
			}
		}
		return true
	}
	return same(a.Top, b.Top) && same(a.Values, b.Values)
}

// TestCacheHitBitIdentity: for every algorithm, a miss at top=3 is
// followed by hits at top 0, 1, 10 and maxTop — one entry serves every
// top — and the same again with a nodes= list, which keys its own entry.
// Every answer, miss or hit, is bit-identical to an uncached server's.
func TestCacheHitBitIdentity(t *testing.T) {
	cached := cachedTestServer(t)
	plain := newTestServer(t, serverConfig{})
	bases := []string{
		"/v1/query?algo=pagerank&iters=30&tol=0",
		"/v1/query?algo=ppr&source=3&iters=20&tol=0",
		"/v1/query?algo=bfs&source=5",
		"/v1/query?algo=indegree",
	}
	var hits int64
	for _, base := range bases {
		for _, nodes := range []string{"", "&nodes=" + probeNodes} {
			for i, top := range []int{3, 0, 1, 10, cached.cfg.maxTop} {
				q := base + nodes + "&top=" + strconv.Itoa(top)
				got := decodeResponse(t, get(cached, q))
				if wantHit := i > 0; got.Results[0].Cached != wantHit {
					t.Errorf("%s: cached = %v, want %v", q, got.Results[0].Cached, wantHit)
				}
				want := decodeResponse(t, get(plain, q))
				if !sameAnswer(got.Results[0], want.Results[0]) {
					t.Errorf("%s: cached server answers %+v, uncached %+v", q, got.Results[0], want.Results[0])
				}
				if !strings.Contains(base, "bfs") && len(got.Results[0].Top) != top {
					t.Errorf("%s: %d top rows", q, len(got.Results[0].Top))
				}
				if i > 0 {
					hits++
				}
			}
		}
	}
	if st := cached.cache.Stats(); st.Hits != hits || st.Entries != 2*len(bases) {
		t.Errorf("cache hits = %d, entries = %d, want %d and %d", st.Hits, st.Entries, hits, 2*len(bases))
	}
}

// TestCacheEntryIsAnswerSized: an entry is the shaped answer, not the
// n-vector, so after N distinct-source misses the cache holds at most
// N·(maxTop·16 + 256) bytes whatever the graph's size.
func TestCacheEntryIsAnswerSized(t *testing.T) {
	big, err := mixen.GenerateSkewed(mixen.SkewedConfig{
		N: 12000, M: 96000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*mixen.Graph{testGraph(t), big} {
		s := newGraphServer(t, g, serverConfig{cacheBytes: 1 << 24})
		const n = 16
		for i := 0; i < n; i++ {
			algo := []string{"ppr", "bfs"}[i%2]
			resp := decodeResponse(t, get(s, fmt.Sprintf("/v1/query?algo=%s&source=%d&iters=10&top=%d", algo, 7*i+1, s.cfg.maxTop)))
			if resp.Results[0].Cached {
				t.Fatalf("%s from %d: a distinct source served from cache", algo, 7*i+1)
			}
		}
		var hz healthzResponse
		if err := jsonDecode(get(s, "/healthz"), &hz); err != nil {
			t.Fatal(err)
		}
		limit := int64(n * (s.cfg.maxTop*16 + 256))
		if hz.Cache == nil || hz.Cache.Entries != n || hz.Cache.SizeBytes > limit {
			t.Errorf("n=%d: /healthz cache %+v, want %d entries in <= %d bytes", g.NumNodes(), hz.Cache, n, limit)
		}
	}
}

// FuzzTopKPrefix pins the rule one cached top-maxTop list relies on to
// serve every top: topK's order is total (value, then the lower id), so
// topK(v, k) is the first k rows of topK(v, K) for every k <= K, in both
// directions, with ties and +Inf (BFS's unreachable) in the vector. Both
// must also equal a stable sort of v cut to K.
func FuzzTopKPrefix(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 7, 0xf0}, uint8(10))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, bigK uint8) {
		values := make([]float64, min(len(raw), 512))
		for i := range values {
			if b := raw[i]; b >= 0xf0 {
				values[i] = math.Inf(1)
			} else {
				values[i] = float64(int(b%16)-8) / 2 // few distinct values: ties
			}
		}
		K := int(bigK)
		for _, asc := range []bool{false, true} {
			full := topK(values, K, asc)
			var ref []nodeValue
			for i, v := range values {
				if !asc || !math.IsInf(v, 1) {
					ref = append(ref, nodeValue{Node: uint32(i), Value: v})
				}
			}
			sort.SliceStable(ref, func(a, b int) bool {
				if asc {
					return ref[a].Value < ref[b].Value
				}
				return ref[a].Value > ref[b].Value
			})
			if !slices.Equal(full, ref[:min(K, len(ref))]) {
				t.Fatalf("asc=%v K=%d: topK %v, stable sort %v", asc, K, full, ref[:min(K, len(ref))])
			}
			for k := 0; k <= K; k++ {
				if got := topK(values, k, asc); !slices.Equal(got, full[:min(k, len(full))]) {
					t.Fatalf("asc=%v: topK(v, %d) = %v, not a prefix of topK(v, %d) = %v", asc, k, got, K, full)
				}
			}
		}
	})
}

// TestCacheSharedAcrossSourceSets: ppr caches per source, so {1,2} then
// {2,3} reuses source 2's vector.
func TestCacheSharedAcrossSourceSets(t *testing.T) {
	s := cachedTestServer(t)
	decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=1,2&iters=15&tol=0"))
	resp := decodeResponse(t, get(s, "/v1/query?algo=ppr&sources=2,3&iters=15&tol=0"))
	bySource := map[uint32]bool{}
	for _, r := range resp.Results {
		bySource[*r.Source] = r.Cached
	}
	if !bySource[2] {
		t.Error("source 2 not served from cache on the overlapping request")
	}
	if bySource[3] {
		t.Error("source 3 claims cached on its first appearance")
	}
}

// TestCacheSingleflightCollapse: concurrent queries that differ only in
// top collapse onto one engine run and one shared answer; each response
// is that answer cut to its own top.
func TestCacheSingleflightCollapse(t *testing.T) {
	s := newTestServer(t, serverConfig{cacheBytes: 1 << 22, maxConcurrent: 8, maxQueue: 64})
	const callers = 8
	var wg sync.WaitGroup
	responses := make([]queryResponse, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				"/v1/query?algo=pagerank&iters=40&tol=0&top="+strconv.Itoa(i)+"&nodes="+probeNodes, nil))
			if rec.Code == http.StatusOK {
				responses[i] = decodeResponse(t, rec)
			}
		}(i)
	}
	wg.Wait()
	want := responses[callers-1].Results[0]
	for i := 0; i < callers; i++ {
		// Every caller asked its own top; all share one entry, cut to it.
		cut := want
		cut.Top = want.Top[:i]
		if got := responses[i].Results[0]; !sameAnswer(got, cut) {
			t.Fatalf("caller %d: %+v, want %+v", i, got, cut)
		}
	}
	st := s.cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits+st.Collapsed != callers-1 {
		t.Errorf("hits+collapsed = %d, want %d", st.Hits+st.Collapsed, callers-1)
	}
}

// TestModeValidation: mode=exact (or no mode) is the only serving
// flavour; anything else is a 400.
func TestModeValidation(t *testing.T) {
	s := cachedTestServer(t)
	if rec := get(s, "/v1/query?algo=ppr&source=3&mode=exact"); rec.Code != http.StatusOK {
		t.Errorf("mode=exact: status %d, want 200", rec.Code)
	}
	for _, mode := range []string{"approx", "refine", "nope"} {
		if rec := get(s, "/v1/query?algo=ppr&source=3&mode="+mode); rec.Code != http.StatusBadRequest {
			t.Errorf("mode=%s: status %d, want 400", mode, rec.Code)
		}
	}
}

// TestFanOutRecoversPanic: a panicking run becomes that index's error;
// the other runs complete and the process survives.
func TestFanOutRecoversPanic(t *testing.T) {
	var ran [4]bool
	err := fanOut(len(ran), func(i int) error {
		if i == 2 {
			panic("bad program")
		}
		ran[i] = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "bad program") {
		t.Fatalf("fanOut error = %v, want the recovered panic", err)
	}
	if !ran[0] || !ran[1] || !ran[3] {
		t.Errorf("non-panicking runs did not all complete: %v", ran)
	}
}

// writeTestPartition builds g's engine and writes it as a .mixp file.
func writeTestPartition(t *testing.T, g *mixen.Graph, path string) {
	t.Helper()
	eng, err := mixen.New(g, mixen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mixen.WritePartition(path, eng); err != nil {
		t.Fatalf("WritePartition: %v", err)
	}
}

// TestEpochSwapInvalidatesCache is the partition-swap safety property:
// entries cached against epoch N must never be served once a new .mixp
// mapping is opened. Partition A and B hold different graphs; after the
// swap the same query must return B's values, and /healthz must show the
// new epoch.
func TestEpochSwapInvalidatesCache(t *testing.T) {
	gA := testGraph(t)
	gB, err := mixen.GenerateSkewed(mixen.SkewedConfig{
		N: 1500, M: 12000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 1234, // different graph, same shape
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.mixp"), filepath.Join(dir, "b.mixp")
	writeTestPartition(t, gA, pathA)
	writeTestPartition(t, gB, pathB)

	me, err := mixen.OpenPartition(pathA, mixen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := (serverConfig{cacheBytes: 1 << 22}).withDefaults()
	bcfg := mixen.BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond}
	s := newServerMapped(me, mixen.NewMetricsRegistry(), cfg, bcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	const q = "/v1/query?algo=ppr&source=3&iters=20&tol=0&top=0&nodes=" + probeNodes
	fromA := decodeResponse(t, get(s, q))
	if hit := decodeResponse(t, get(s, q)); !hit.Results[0].Cached {
		t.Fatal("warm-up query not cached before the swap")
	}
	epochA := s.state().epoch

	// Swap in partition B (what the SIGHUP handler does).
	if _, err := s.reloadPartition(pathB, mixen.Config{}); err != nil {
		t.Fatalf("reloadPartition: %v", err)
	}
	epochB := s.state().epoch
	if epochB == epochA {
		t.Fatalf("swap kept epoch %d", epochA)
	}

	fromB := decodeResponse(t, get(s, q))
	if fromB.Results[0].Cached {
		t.Error("first query after the swap claims cached — epoch N entry served at epoch N+1")
	}
	// B is a genuinely different graph, so the answer must change.
	valsA, valsB := valuesOf(t, fromA), valuesOf(t, fromB)
	same := true
	for node, a := range valsA {
		if math.Float64bits(a) != math.Float64bits(valsB[node]) {
			same = false
			break
		}
	}
	if same {
		t.Error("post-swap answer identical to pre-swap cache — stale epoch served")
	}
	// The authoritative answer: a fresh server on B bit-matches.
	meB, err := mixen.OpenPartition(pathB, mixen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sB := newServerMapped(meB, mixen.NewMetricsRegistry(), cfg, bcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sB.Shutdown(ctx)
	})
	want := valuesOf(t, decodeResponse(t, get(sB, q)))
	for node, w := range want {
		if math.Float64bits(w) != math.Float64bits(valsB[node]) {
			t.Errorf("node %d: post-swap value differs from fresh partition-B server", node)
		}
	}
	// /healthz surfaces the new epoch and the invalidation counters.
	rec := get(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var hz healthzResponse
	if err := jsonDecode(rec, &hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if hz.Epoch != epochB {
		t.Errorf("/healthz epoch = %d, want %d", hz.Epoch, epochB)
	}
	if hz.Partition == nil || hz.Partition.File != pathB {
		t.Errorf("/healthz partition = %+v, want file %s", hz.Partition, pathB)
	}
	if hz.Cache == nil || hz.Cache.EpochInvalidations == 0 {
		t.Errorf("/healthz cache stats missing epoch invalidations: %+v", hz.Cache)
	}
}

// TestCacheTTLExpiresEntries: with a tiny TTL the second query recomputes.
func TestCacheTTLExpiresEntries(t *testing.T) {
	s := newTestServer(t, serverConfig{cacheBytes: 1 << 22, cacheTTL: time.Millisecond})
	const q = "/v1/query?algo=pagerank&iters=10&tol=0"
	decodeResponse(t, get(s, q))
	time.Sleep(5 * time.Millisecond)
	if resp := decodeResponse(t, get(s, q)); resp.Results[0].Cached {
		t.Error("entry served after TTL expiry")
	}
}

// jsonDecode unmarshals a recorder body.
func jsonDecode(rec *httptest.ResponseRecorder, v any) error {
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// BenchmarkServeCachedQuery measures the cached serving path end to end
// and reports the p99 latency.
func BenchmarkServeCachedQuery(b *testing.B) {
	s := newTestServer(b, serverConfig{cacheBytes: 1 << 22, maxConcurrent: 8, maxQueue: 64})
	const q = "/v1/query?algo=ppr&source=3&iters=20&tol=0&top=10"
	// Prime the cache.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("prime: status %d", rec.Code)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		lat = append(lat, time.Since(start))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
	}
}
