package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mixen"
	"mixen/internal/servecache"
)

// serveWorkload is one traffic mix against a spawned mixenserve.
type serveWorkload struct {
	clients int
	// prepare builds whatever the server is started from, the in-process
	// oracle that recomputes sampled answers, and the request lists.
	prepare func(tr *tracer, r *result) (*served, error)
	// probe runs the workload's in-process layer probes of a traced run,
	// after the server has stopped.
	probe func(sv *served, plan []request, replies []reply, r *result) error
}

type served struct {
	args   []string // server flags besides -addr
	oracle *oracle
	warm   []request // untimed pass before the window
	// plan is consumed in order. Its first leadIn requests go out untimed
	// after the warm pass — the workload's own traffic, so that cache
	// contents and heap have settled when the window opens.
	plan   []request
	leadIn int
	close  func() error
}

func serverThreads(o options) int { return max(1, o.host.NProc-1) }

// oracle recomputes a query in-process through the public API on an
// engine identical to the server's.
type oracle struct {
	eng   *mixen.MixenEngine
	nodes int
	deg   []float64
}

func (or *oracle) program(algo string, source uint32) mixen.Program {
	if algo == "bfs" {
		return mixen.NewBFSProgramForN(or.nodes, source)
	}
	return mixen.NewPersonalizedPageRankProgramShared(or.nodes, or.deg, source, damping, pprTol, pprIters)
}

type nodeValue struct {
	Node  uint32  `json:"node"`
	Value float64 `json:"value"`
}

// top is the server's top-K rule: the k best values, ties to the lower
// id; BFS wants the nearest nodes and drops unreachable ones.
func top(values []float64, k int, ascending bool) []nodeValue {
	var all []nodeValue
	for i, v := range values {
		if !math.IsInf(v, 1) || !ascending {
			all = append(all, nodeValue{uint32(i), v})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if ascending {
			return all[a].Value < all[b].Value
		}
		return all[a].Value > all[b].Value
	})
	return all[:min(k, len(all))]
}

// queryResponse is the part of a /v1/query body the benchmark reads.
type queryResponse struct {
	ElapsedMs float64 `json:"elapsed_ms"`
	Results   []struct {
		Source     *uint32     `json:"source"`
		Iterations int         `json:"iterations"`
		BatchSize  int         `json:"batch_size"`
		Cached     bool        `json:"cached"`
		Top        []nodeValue `json:"top"`
	} `json:"results"`
}

// verify recomputes q and compares ids and values bit for bit (Go's JSON
// float round trip is exact). It returns the first difference.
func (or *oracle) verify(q request, resp queryResponse) string {
	if len(resp.Results) != len(q.Sources) {
		return fmt.Sprintf("%s: %d results for %d sources", q.path(), len(resp.Results), len(q.Sources))
	}
	for i, src := range q.Sources {
		res, err := or.eng.Run(or.program(q.Algo, src))
		if err != nil {
			return fmt.Sprintf("%s: in-process run: %v", q.path(), err)
		}
		got, want := resp.Results[i], top(res.Values, topK, q.Algo == "bfs")
		if got.Source == nil || *got.Source != src || got.Iterations != res.Iterations || len(got.Top) != len(want) {
			return fmt.Sprintf("%s: source %d: shape or iteration count differs from the in-process run", q.path(), src)
		}
		for j := range want {
			if got.Top[j].Node != want[j].Node || math.Float64bits(got.Top[j].Value) != math.Float64bits(want[j].Value) {
				return fmt.Sprintf("%s: source %d: top[%d] = %v, in-process run gives %v", q.path(), src, j, got.Top[j], want[j])
			}
		}
	}
	return ""
}

// reply is one request as the client saw it.
type reply struct {
	start   time.Time
	latency time.Duration // send → body fully read
	status  int
	body    []byte
	err     error
}

// closedLoop sends paths in order from `clients` connections, each sending
// its next request only when the previous one has been answered. It stops
// after `seconds` (0: when the plan is exhausted) and returns the replies
// of the requests it sent plus the wall time of the loop. Bodies are kept
// and parsed afterwards, so the client adds no think time.
func closedLoop(ctx context.Context, client *http.Client, base string, paths []string, clients int, seconds float64) ([]reply, time.Duration) {
	replies := make([]reply, len(paths))
	var next, sent atomic.Int64
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (seconds == 0 || time.Since(begin).Seconds() < seconds) {
				i := int(next.Add(1) - 1)
				if i >= len(paths) {
					return
				}
				sent.Add(1)
				rp := &replies[i]
				rp.start = time.Now()
				resp, err := client.Get(base + paths[i])
				if err == nil {
					rp.status = resp.StatusCode
					rp.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				rp.err = err
				rp.latency = time.Since(rp.start)
			}
		}()
	}
	wg.Wait()
	// Requests are claimed in order, so the ones sent are a prefix.
	return replies[:sent.Load()], time.Since(begin)
}

func paths(plan []request) []string {
	out := make([]string, len(plan))
	for i, q := range plan {
		out[i] = q.path()
	}
	return out
}

func runServe(ctx context.Context, w serveWorkload, o options, tr *tracer, r *result) error {
	bin, err := buildServer(ctx, o)
	if err != nil {
		return err
	}
	sv, err := w.prepare(tr, r)
	if err != nil {
		return err
	}
	defer sv.close()
	// server.log holds this run's servers only.
	os.Remove(filepath.Join(o.out, "server.log"))
	// One kept-alive connection per client, so that connection set-up is
	// in none of the samples.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: w.clients, MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients,
		DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	srv, err := spawnServers(ctx, o, bin, sv.args, client, tr, r)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	// Open every client connection (on a path that touches no cache), then
	// the workload's own warm pass, then the head of its plan.
	opening := make([]string, w.clients)
	for i := range opening {
		opening[i] = "/readyz"
	}
	leadIn := min(sv.leadIn, len(sv.plan)/2)
	timed := sv.plan[leadIn:]
	for _, warm := range [][]string{opening, paths(sv.warm), paths(sv.plan[:leadIn])} {
		replies, _ := closedLoop(ctx, client, srv.base, warm, w.clients, 0)
		for i, rp := range replies {
			if rp.err != nil || rp.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d, %v\n%s", warm[i], rp.status, rp.err, logTail(o))
			}
		}
	}

	var before, after registry
	if tr != nil {
		if before, err = srv.metrics(client); err != nil {
			return err
		}
	}
	seconds := o.seconds
	if o.smoke {
		seconds = 0 // the smoke plan is short; send all of it
	}
	replies, wall := closedLoop(ctx, client, srv.base, paths(timed), w.clients, seconds)
	if err := ctx.Err(); err != nil {
		return err
	}
	if tr != nil {
		// The server samples its runtime gauges once a second.
		time.Sleep(1100 * time.Millisecond)
		if after, err = srv.metrics(client); err != nil {
			return err
		}
	}
	peak, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	r.set("mem_mb", peak)
	stopped = true
	if err := srv.stop(); err != nil {
		r.check(fmt.Sprintf("mixenserve: %v\n%s", err, logTail(o)))
	}

	if err := sv.score(timed, replies, wall, tr, r); err != nil {
		return fmt.Errorf("%w\n%s", err, logTail(o))
	}
	if tr == nil {
		return nil
	}
	serverCounters(before, after, r)
	return w.probe(sv, timed, replies, r)
}

// spawnReps is how often a serve workload sets up. A spawn takes tens of
// milliseconds, and on the shared host the middle half of five of them lay
// up to 50 % apart: the median of so few wanders from run to run.
const spawnReps = 15

// spawnServers measures set-up — spawn → first answered query — several
// times over, and leaves the last server up for the traffic.
func spawnServers(ctx context.Context, o options, bin string, args []string, client *http.Client, tr *tracer, r *result) (*serverProc, error) {
	var srv *serverProc
	var ready, setup []float64
	for i := 0; i < spawnReps; i++ {
		if srv != nil {
			// mixenserve installs its SIGTERM handler after it starts
			// listening: a signal in the instant after its first answer
			// would kill it instead of draining it.
			time.Sleep(50 * time.Millisecond)
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("mixenserve: %w\n%s", err, logTail(o))
			}
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		s, rdy, first, err := startServer(ctx, o, bin, args, client)
		if err != nil {
			return nil, err
		}
		tr.add("server.spawn_to_first_query", 0, 0, t0, t0.Add(first))
		srv = s
		ready = append(ready, rdy.Seconds())
		setup = append(setup, first.Seconds())
	}
	r.setMedian("setup_s", setup, 1)
	r.setMedian("server.ready_s", ready, 1)
	return srv, nil
}

// score turns the window's replies into metrics. Every request is an
// operation; a transport error, a non-200 or an unreadable body fails it,
// and every 50th answer is recomputed in-process. In a traced run every
// second request records spans.
func (sv *served) score(plan []request, replies []reply, wall time.Duration, tr *tracer, r *result) error {
	lat := map[bool][]float64{}
	var handler []float64
	for i, rp := range replies {
		var resp queryResponse
		r.Attempted++
		if rp.err == nil && rp.status != http.StatusOK {
			rp.err = fmt.Errorf("status %d: %s", rp.status, rp.body)
		}
		if rp.err == nil {
			rp.err = json.Unmarshal(rp.body, &resp)
		}
		if rp.err != nil {
			r.Failed++
			r.Problems = append(r.Problems, fmt.Sprintf("%s: %v", plan[i].path(), rp.err))
			continue
		}
		traced := tr != nil && i%2 == 1
		lat[traced] = append(lat[traced], float64(rp.latency)/1e6)
		handler = append(handler, resp.ElapsedMs)
		if traced {
			// The handler's own elapsed time, centred in the client's span:
			// what is left over is loopback, net/http, decode and encode.
			end := rp.start.Add(rp.latency)
			rest := rp.latency - time.Duration(resp.ElapsedMs*1e6)
			parent := tr.add("client.request", 0, int64(i+1), rp.start, end)
			tr.add("server.handler", parent, int64(i+1), rp.start.Add(rest/2), end.Add(-rest/2))
		}
		if i%50 == 0 {
			r.check(sv.oracle.verify(plan[i], resp))
		}
	}
	if len(lat[false]) == 0 {
		return errors.New("no request succeeded")
	}
	r.setMedian("op_p50_ms", lat[false], 1)
	ends := make([]float64, len(replies))
	for i, rp := range replies {
		ends[i] = rp.start.Add(rp.latency).Sub(replies[0].start).Seconds()
	}
	r.set("ops_per_s", stretchRate(ends, int(wall.Seconds())))
	r.setLatencies(append(lat[false], lat[true]...))
	r.setMedian("server.handler_ms_p50", handler, 1)
	if tr == nil {
		return nil
	}
	r.set("trace_overhead_pct", (median(lat[true])/median(lat[false])-1)*100)
	spans := tr.snapshot()
	self := selfTimes(spans)
	var overhead []float64
	for _, s := range spans {
		if s.Name == "client.request" {
			overhead = append(overhead, float64(self[s.ID])/1e6)
		}
	}
	r.setMedian("http.overhead_ms_p50", overhead, 1)
	return nil
}

// serverCounters reports what the server's own counters say it did
// between two /metrics snapshots.
func serverCounters(before, after registry, r *result) {
	delta := func(name string) float64 { return after.counter(name) - before.counter(name) }
	for metric, name := range map[string]string{
		"batcher.queries":          "batch.queries",
		"batcher.flushes_full":     "batch.flushes_full",
		"batcher.flushes_deadline": "batch.flushes_deadline",
		"servecache.hits":          "server.cache.hits",
		"servecache.misses":        "server.cache.misses",
		"servecache.collapsed":     "server.cache.collapsed",
		"servecache.evictions":     "server.cache.evictions",
		"core.runs":                "core.runs",
		"core.iterations":          "core.iterations",
		"core.gather_edges":        "core.gather_edges",
		"runtime.gc_count":         "runtime.gc_count",
		"server.shed":              "server.shed_total",
		"server.deadline":          "server.deadline_total",
	} {
		r.set(metric, delta(name))
	}
	r.set("runtime.gc_pause_ms", delta("runtime.gc_pause_total_ns")/1e6)
	if flushes := delta("batch.flushes"); flushes > 0 {
		r.set("batcher.mean_width", delta("batch.queries")/flushes)
	}
	if lookups := delta("server.cache.hits") + delta("server.cache.misses") + delta("server.cache.collapsed"); lookups > 0 {
		r.set("servecache.hit_ratio", delta("server.cache.hits")/lookups)
	}
}

func serveLone(o options) serveWorkload {
	const cacheBytes = 64 << 20
	shrink, perSecond := 16, 400
	if o.smoke {
		shrink = 64
	}
	return serveWorkload{
		clients: 1,
		prepare: func(*tracer, *result) (*served, error) {
			g, err := mixen.Dataset("wiki", shrink)
			if err != nil {
				return nil, err
			}
			eng, err := mixen.New(g, mixen.Config{Threads: serverThreads(o)})
			if err != nil {
				return nil, err
			}
			// As many entries as the cache holds (servecache charges a
			// vector len*8+128 bytes), and a few more.
			fill := cacheBytes/(g.NumNodes()*8+128) + 16
			if o.smoke {
				fill = 64
			}
			warm, plan := lonePlan(o.seed, g.NumNodes(), planLength(o, perSecond), fill)
			return &served{
				args: []string{"-preset", "wiki", "-shrink", strconv.Itoa(shrink),
					"-threads", strconv.Itoa(serverThreads(o)), "-cache-size", strconv.Itoa(cacheBytes)},
				oracle: &oracle{eng: eng, nodes: g.NumNodes(), deg: mixen.OutDegrees(g)},
				warm:   warm,
				plan:   plan,
				leadIn: 100, // about a second of traffic
				close:  func() error { return nil },
			}, nil
		},
		probe: loneProbe,
	}
}

func planLength(o options, perSecond int) int {
	if o.smoke {
		return 50
	}
	return int(math.Ceil(o.seconds * float64(perSecond)))
}

// loneProbe measures what the serving layers add to a lone query: the
// client's latency against the same query run directly on an identical
// engine, and the batcher's share of that on an idle batcher.
func loneProbe(sv *served, plan []request, replies []reply, r *result) error {
	direct := func(q request) (float64, error) {
		t0 := time.Now()
		_, err := sv.oracle.eng.Run(sv.oracle.program(q.Algo, q.Sources[0]))
		return float64(time.Since(t0)) / 1e6, err
	}
	// The server's defaults: -batch 8 -batch-wait 2ms.
	bat := mixen.NewBatcher(sv.oracle.eng, mixen.BatcherConfig{MaxBatch: 8, MaxWait: 2 * time.Millisecond})
	defer bat.Close()
	var overhead, wait []float64
	for i := 0; i < len(replies); i += 10 {
		if replies[i].err != nil {
			continue
		}
		ms, err := direct(plan[i])
		if err != nil {
			return err
		}
		overhead = append(overhead, float64(replies[i].latency)/1e6-ms)
		t0 := time.Now()
		fut, err := bat.Submit(sv.oracle.program(plan[i].Algo, plan[i].Sources[0]))
		if err != nil {
			return err
		}
		if _, err := fut.Wait(); err != nil {
			return err
		}
		wait = append(wait, float64(time.Since(t0))/1e6-ms)
	}
	r.setMedian("server.lone_overhead_ms_p50", overhead, 1)
	r.setMedian("batcher.lone_wait_ms", wait, 1)
	return nil
}

func serveZipf(o options) serveWorkload {
	shrink, perSecond := 4, 1000
	if o.smoke {
		shrink = 64
	}
	return serveWorkload{
		clients: 2,
		prepare: func(tr *tracer, r *result) (*served, error) {
			g, err := mixen.Dataset("wiki", shrink)
			if err != nil {
				return nil, err
			}
			cfg := mixen.Config{Threads: serverThreads(o)}
			eng, err := mixen.New(g, cfg)
			if err != nil {
				return nil, err
			}
			file := filepath.Join(o.tmp, "wiki.mixp")
			t0 := time.Now()
			if err := mixen.WritePartition(file, eng); err != nil {
				return nil, err
			}
			t1 := time.Now()
			tr.add("partio.write", 0, 0, t0, t1)
			r.set("partio.write_s", t1.Sub(t0).Seconds())
			if st, err := os.Stat(file); err == nil {
				r.set("partio.file_mb", float64(st.Size())/1e6)
			}
			// The oracle serves from the same file the server maps.
			t0 = time.Now()
			mapped, err := mixen.OpenPartition(file, cfg)
			if err != nil {
				return nil, err
			}
			or := &oracle{eng: mapped.MixenEngine, nodes: g.NumNodes(), deg: mapped.OutDegrees()}
			if _, err := or.eng.Run(or.program("bfs", 0)); err != nil {
				mapped.Close()
				return nil, err
			}
			tr.add("partio.open_to_first_run", 0, 0, t0, time.Now())
			r.set("partio.open_ms", float64(time.Since(t0))/1e6)
			hot := hotSources(g, hotSetSize)
			return &served{
				args: []string{"-partition", file,
					"-threads", strconv.Itoa(serverThreads(o)), "-cache-size", strconv.Itoa(256 << 20)},
				oracle: or,
				warm:   warmPlan(hot),
				plan:   zipfPlan(o.seed, g.NumNodes(), hot, planLength(o, perSecond)),
				close:  mapped.Close,
			}, nil
		},
		probe: cacheProbe,
	}
}

// cacheProbe times the result cache alone, in-process, on values the size
// of this workload's vectors: a lookup of a resident key, and a miss whose
// compute is free (so insert and eviction are what is left).
func cacheProbe(sv *served, _ []request, _ []reply, r *result) error {
	const capacity, ops = 64, 20000
	value := make([]float64, sv.oracle.nodes)
	size := int64(len(value))*8 + 128
	cache := servecache.New("probe", capacity*size, 0, nil)
	compute := func(context.Context) (any, int64, error) { return value, size, nil }
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = servecache.Params{Algo: "ppr", Mode: "exact", Sources: []uint32{uint32(i)}}.Key()
	}
	ctx := context.Background()
	for _, key := range keys[:capacity] {
		if _, _, err := cache.GetOrCompute(ctx, key, compute); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, out, _ := cache.GetOrCompute(ctx, keys[i%capacity], compute); out != servecache.Hit {
			return fmt.Errorf("cache probe: resident key answered %v", out)
		}
	}
	r.set("servecache.hit_ns", float64(time.Since(t0))/ops)
	t0 = time.Now()
	for _, key := range keys[capacity:] {
		if _, out, _ := cache.GetOrCompute(ctx, key, compute); out != servecache.Miss {
			return fmt.Errorf("cache probe: fresh key answered %v", out)
		}
	}
	r.set("servecache.miss_overhead_ns", float64(time.Since(t0))/float64(ops-capacity))
	return nil
}
