package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mixen"
)

// request is one /v1/query call of a serve workload's plan.
type request struct {
	Algo    string // "ppr" or "bfs"
	Sources []uint32
}

// path is the request as the server sees it. Every parameter the answer
// depends on is spelled out, so the plan does not lean on server defaults.
func (q request) path() string {
	ids := make([]string, len(q.Sources))
	for i, s := range q.Sources {
		ids[i] = strconv.FormatUint(uint64(s), 10)
	}
	p := "/v1/query?algo=" + q.Algo + "&sources=" + strings.Join(ids, ",") + "&top=" + strconv.Itoa(topK)
	if q.Algo == "ppr" {
		p += "&damping=" + strconv.FormatFloat(damping, 'g', -1, 64) +
			"&tol=" + strconv.FormatFloat(pprTol, 'g', -1, 64) + "&iters=" + strconv.Itoa(pprIters)
	}
	return p
}

const (
	topK       = 10
	pprTol     = 1e-6
	pprIters   = 100
	hotSetSize = 256
	zipfS      = 1.1
)

// deal returns n labels drawn from deck after deck, each shuffled by rng:
// every stretch of len(deck) requests has exactly the deck's composition,
// so the mix a window sees does not wander with the seed's luck.
func deal(rng *rand.Rand, n int, deck []string) []string {
	out := make([]string, 0, n+len(deck))
	for len(out) < n {
		hand := append([]string(nil), deck...)
		rng.Shuffle(len(hand), func(a, b int) { hand[a], hand[b] = hand[b], hand[a] })
		out = append(out, hand...)
	}
	return out[:n]
}

// algoDeck is 70 % ppr, 30 % bfs; kindDeck is serve-zipf's 80 % single hot
// source, 10 % eight hot sources, 10 % one cold source.
var (
	algoDeck = []string{"ppr", "ppr", "ppr", "ppr", "ppr", "ppr", "ppr", "bfs", "bfs", "bfs"}
	kindDeck = []string{"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "eight", "cold"}
)

// lonePlan is the serve-lone request list: count single-source requests
// whose sources are all distinct (sampled without replacement), so the
// result cache can never hit. The warm list asks for `fill` more sources,
// none of them in the plan, eight to a bfs request: it fills the cache
// before the window, so every timed request inserts and evicts, and the
// server's heap has its full size from the first one. Pure functions of
// their arguments.
func lonePlan(seed int64, nodes, count, fill int) (warm, plan []request) {
	rng := rand.New(rand.NewSource(seed))
	count = min(count, nodes)
	algos := deal(rng, count, algoDeck)
	perm := rng.Perm(nodes)
	plan = make([]request, count)
	for i, v := range perm[:count] {
		plan[i] = request{Algo: algos[i], Sources: []uint32{uint32(v)}}
	}
	rest := perm[count:min(count+fill, nodes)]
	for i := 0; i < len(rest); i += 8 {
		q := request{Algo: "bfs"}
		for _, v := range rest[i:min(i+8, len(rest))] {
			q.Sources = append(q.Sources, uint32(v))
		}
		warm = append(warm, q)
	}
	return warm, plan
}

// byOutDegree sorts ids by descending out-degree, ties to the lower id.
func byOutDegree(g *mixen.Graph, ids []uint32) {
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.OutDegree(mixen.Node(ids[a])), g.OutDegree(mixen.Node(ids[b]))
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
}

// hotSources returns the k nodes of highest out-degree: the population a
// skewed query stream concentrates on.
func hotSources(g *mixen.Graph, k int) []uint32 {
	ids := make([]uint32, g.NumNodes())
	for i := range ids {
		ids[i] = uint32(i)
	}
	byOutDegree(g, ids)
	return ids[:min(k, len(ids))]
}

// zipfPlan is the serve-zipf request list: 80 % single-source requests
// drawn zipf(s=1.1) from the hot set, 10 % eight-source requests from the
// same distribution, 10 % uniformly random cold sources that are never in
// the hot set. A pure function of its arguments.
func zipfPlan(seed int64, nodes int, hot []uint32, count int) []request {
	rng := rand.New(rand.NewSource(seed))
	cdf := make([]float64, len(hot))
	var total float64
	for r := range hot {
		total += math.Pow(float64(r+1), -zipfS)
		cdf[r] = total
	}
	drawHot := func() uint32 { return hot[sort.SearchFloat64s(cdf, rng.Float64()*total)] }
	isHot := make(map[uint32]bool, len(hot))
	for _, h := range hot {
		isHot[h] = true
	}
	algos, kinds := deal(rng, count, algoDeck), deal(rng, count, kindDeck)
	plan := make([]request, count)
	for i := range plan {
		q := request{Algo: algos[i]}
		switch kinds[i] {
		case "hot":
			q.Sources = []uint32{drawHot()}
		case "eight":
			seen := map[uint32]bool{}
			for len(q.Sources) < 8 {
				if s := drawHot(); !seen[s] {
					seen[s] = true
					q.Sources = append(q.Sources, s)
				}
			}
		default:
			s := uint32(rng.Intn(nodes))
			for isHot[s] {
				s = uint32(rng.Intn(nodes))
			}
			q.Sources = []uint32{s}
		}
		plan[i] = q
	}
	return plan
}

// warmPlan asks for every hot source once per algorithm, eight sources to
// a request so that the misses fuse in the batcher and the pass is short.
// It goes from the least popular source to the most popular one, so the
// LRU order it leaves behind is the one the traffic keeps up: what the
// cache cannot hold falls off the unpopular end, and the window starts in
// the steady state instead of spending seconds re-computing the favourites.
func warmPlan(hot []uint32) []request {
	var plan []request
	for end := len(hot); end > 0; end -= 8 {
		for _, algo := range []string{"ppr", "bfs"} {
			plan = append(plan, request{Algo: algo, Sources: hot[max(end-8, 0):end]})
		}
	}
	return plan
}
