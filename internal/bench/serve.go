package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mixen/internal/algo"
	"mixen/internal/core"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/servecache"
	"mixen/internal/vprog"
)

// The serve study replays a zipf-distributed PPR query stream against the
// serving-layer result cache (internal/servecache) and measures what the
// cache buys: steady-state p50/p99 latency, throughput and hit rate,
// cache-on vs cache-off, across skew exponents. The replay models a
// production serving window: the cache is warmed by one untimed pass over
// the trace (the traffic that preceded the window), then the timed pass
// measures the window itself. Compulsory misses show up in the warm
// pass's hit rate (WarmHitPct), which is where the zipf skew is visible:
// the more skewed the stream, the more of it is re-requests.
//
// A bit-identity gate rides along: sampled cached answers are compared bit
// for bit against fresh engine runs — a cache hit must be
// indistinguishable from recomputing (the engine is deterministic; the
// cache serves a previous run's vector verbatim).
const (
	// serveHotSet is how many degree-ranked hot sources the zipf sampler
	// draws from; the cache is sized to hold exactly this many vectors, so
	// steady-state hit rate is capacity-free and the skew shows up in the
	// warm pass.
	serveHotSet = 256
	// serveQueries is the replay length per (skew, cache) cell.
	serveQueries = 1000
	// serveDamping/serveTol fix the PPR query parameters.
	serveDamping = 0.85
	serveTol     = 1e-8
	// serveIdentityEvery samples every k-th timed query for the
	// bit-identity gate (recomputing fresh is expensive).
	serveIdentityEvery = 97
)

// serveSkews are the zipf exponents swept; >= 1.0 is where the paper's
// skewed-workload claims live, 0.5 anchors the near-uniform end.
var serveSkews = []float64{0.5, 1.0, 1.5}

// ServeRow is one (skew, cache on/off) replay measurement.
type ServeRow struct {
	Skew    float64
	Cache   bool
	Queries int
	HotSet  int
	// WarmHitPct is the hit rate over the untimed warm pass — the
	// fraction of the trace that is re-requests, a property of the skew
	// alone. 0 for cache-off rows.
	WarmHitPct float64
	// HitPct is the hit rate over the timed steady-state pass.
	HitPct float64
	// P50Ms/P99Ms are per-query latency percentiles over the timed pass.
	P50Ms, P99Ms float64
	// QPS is timed-pass throughput.
	QPS float64
	// Identical reports the bit-identity gate for cache rows (always true
	// for cache-off rows, which serve nothing but fresh runs).
	Identical bool
}

// serveGraph builds the study's skewed graph, scaled down by shrink.
func serveGraph(o Options) (*graph.Graph, error) {
	n := 120_000 / o.Shrink
	if n < 2_000 {
		n = 2_000
	}
	return gen.Skewed(gen.SkewedConfig{
		N: n, M: int64(8 * n),
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.3, ZipfV: 1, Seed: 77,
	})
}

// zipfRanks samples count ranks in [0, hot) with P(r) proportional to
// (r+1)^-s by inverse-CDF lookup — unlike rand.Zipf this accepts any
// s >= 0 (s=0 is uniform), so the sweep can anchor below 1.
func zipfRanks(rng *rand.Rand, s float64, hot, count int) []int {
	cdf := make([]float64, hot)
	var total float64
	for r := 0; r < hot; r++ {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	out := make([]int, count)
	for i := range out {
		u := rng.Float64() * total
		out[i] = sort.SearchFloat64s(cdf, u)
	}
	return out
}

// hotSources returns the top-k nodes by out-degree — the plausible "hot"
// population a skewed query stream concentrates on.
func hotSources(g *graph.Graph, k int) []uint32 {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := g.OutDegree(graph.Node(idx[a])), g.OutDegree(graph.Node(idx[b]))
		if da != db {
			return da > db
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	out := make([]uint32, k)
	for i := 0; i < k; i++ {
		out[i] = uint32(idx[i])
	}
	return out
}

// ServeStudy runs the zipf replay for each skew, cache-off then cache-on.
// Every cache-on row is gated on bit-identity; a violation is returned as
// an error, not a row.
func ServeStudy(o Options) ([]ServeRow, error) {
	o = o.withDefaults()
	g, err := serveGraph(o)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(g, core.Config{Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	deg := algo.OutDegrees(g)
	hot := hotSources(g, serveHotSet)

	run := func(src uint32) (*vprog.Result, error) {
		return eng.Run(algo.NewPersonalizedPageRankShared(n, deg, src, serveDamping, serveTol, o.Iters))
	}

	var rows []ServeRow
	for _, s := range serveSkews {
		rng := rand.New(rand.NewSource(int64(1000*s) + 7))
		trace := zipfRanks(rng, s, len(hot), serveQueries)

		for _, cached := range []bool{false, true} {
			row := ServeRow{Skew: s, Cache: cached, Queries: len(trace), HotSet: len(hot), Identical: true}
			var cache *servecache.Cache
			if cached {
				// Sized to hold the full hot set: steady-state behaviour,
				// not eviction behaviour, is what this study measures.
				perEntry := int64(n)*8 + 128
				cache = servecache.New("bench.serve", int64(len(hot))*perEntry, 0, nil)
				// Warm pass: the traffic that preceded the measured window.
				for _, r := range trace {
					if _, _, err := getOrRun(cache, hot[r], run); err != nil {
						return nil, err
					}
				}
				ws := cache.Stats()
				if tot := ws.Hits + ws.Misses; tot > 0 {
					row.WarmHitPct = 100 * float64(ws.Hits) / float64(tot)
				}
			}

			lat := make([]time.Duration, len(trace))
			before := servecache.Stats{}
			if cache != nil {
				before = cache.Stats()
			}
			t0 := time.Now()
			for i, r := range trace {
				src := hot[r]
				q0 := time.Now()
				var res *vprog.Result
				var err error
				if cache != nil {
					res, _, err = getOrRun(cache, src, run)
				} else {
					res, err = run(src)
				}
				lat[i] = time.Since(q0)
				if err != nil {
					return nil, err
				}
				// Bit-identity gate: a sampled cached answer must match a
				// fresh run exactly.
				if cache != nil && i%serveIdentityEvery == 0 {
					fresh, err := run(src)
					if err != nil {
						return nil, err
					}
					if !equalF64(res.Values, fresh.Values) {
						row.Identical = false
					}
				}
			}
			total := time.Since(t0)
			if cache != nil {
				after := cache.Stats()
				hits := after.Hits - before.Hits
				misses := after.Misses - before.Misses
				if tot := hits + misses; tot > 0 {
					row.HitPct = 100 * float64(hits) / float64(tot)
				}
			}
			sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
			row.P50Ms = lat[len(lat)/2].Seconds() * 1e3
			row.P99Ms = lat[len(lat)*99/100].Seconds() * 1e3
			row.QPS = float64(len(trace)) / total.Seconds()
			if !row.Identical {
				return nil, fmt.Errorf("bench: serve skew=%.2f: cached answer not bit-identical to a fresh run", s)
			}
			rows = append(rows, row)
		}
	}

	return rows, nil
}

// getOrRun is the serving cache path in miniature: canonical key, then
// GetOrCompute over an engine run.
func getOrRun(cache *servecache.Cache, src uint32, run func(uint32) (*vprog.Result, error)) (*vprog.Result, servecache.Outcome, error) {
	key := servecache.Params{
		Algo: "ppr", Mode: "exact",
		Damping: serveDamping, Tol: serveTol,
		Sources: []uint32{src},
	}.Key()
	v, out, err := cache.GetOrCompute(context.Background(), key, func(context.Context) (any, int64, error) {
		res, err := run(src)
		if err != nil {
			return nil, 0, err
		}
		return res, int64(len(res.Values))*8 + 128, nil
	})
	if err != nil {
		return nil, out, err
	}
	return v.(*vprog.Result), out, nil
}

// FormatServeStudy renders the replay table.
func FormatServeStudy(rows []ServeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %5s %8s %7s %9s %7s %9s %9s %9s %9s\n",
		"Skew", "cache", "queries", "hotset", "warm-hit%", "hit%", "p50 ms", "p99 ms", "qps", "identical")
	for _, r := range rows {
		onoff := "off"
		if r.Cache {
			onoff = "on"
		}
		fmt.Fprintf(&b, "%-5.2f %5s %8d %7d %9.1f %7.1f %9.4f %9.4f %9.0f %9v\n",
			r.Skew, onoff, r.Queries, r.HotSet, r.WarmHitPct, r.HitPct, r.P50Ms, r.P99Ms, r.QPS, r.Identical)
	}
	return b.String()
}

// ServeIdentity is the hard gate: every cache-on row bit-identical.
func ServeIdentity(rows []ServeRow) error {
	for _, r := range rows {
		if r.Cache && !r.Identical {
			return fmt.Errorf("bench: serve skew=%.2f: cached answers not bit-identical to fresh runs", r.Skew)
		}
	}
	return nil
}

// ServeCacheWins checks the headline claim: at skew >= 1.0 the cache-on
// replay beats cache-off on both p99 and throughput. A miss is a warning
// (noisy runners), not a failure.
func ServeCacheWins(rows []ServeRow) error {
	byKey := map[string]ServeRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%.2f/%v", r.Skew, r.Cache)] = r
	}
	for _, s := range serveSkews {
		if s < 1.0 {
			continue
		}
		off, okOff := byKey[fmt.Sprintf("%.2f/false", s)]
		on, okOn := byKey[fmt.Sprintf("%.2f/true", s)]
		if !okOff || !okOn {
			return fmt.Errorf("bench: serve skew=%.2f: missing cache-on or cache-off row", s)
		}
		if on.P99Ms >= off.P99Ms {
			return fmt.Errorf("bench: serve skew=%.2f: cache-on p99 %.4fms does not beat cache-off %.4fms", s, on.P99Ms, off.P99Ms)
		}
		if on.QPS <= off.QPS {
			return fmt.Errorf("bench: serve skew=%.2f: cache-on qps %.0f does not beat cache-off %.0f", s, on.QPS, off.QPS)
		}
	}
	return nil
}
