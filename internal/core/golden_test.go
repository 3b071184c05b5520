package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"mixen/internal/algo"
	"mixen/internal/vprog"
)

// goldenHashes pins every program's answer at Threads 1 on the golden graph:
// the FNV-1a 64 hash of the value bits, the iteration count and the delta
// bits (resultHash). A change to the engine that moves any bit of any
// answer fails here, whichever program-independent step it touched — the
// seed push, the sink pull, the translation back to original ids.
var goldenHashes = map[string]string{
	"bfs/hub":      "25682825228858ea",
	"bfs/isolated": "9551430b92d9f559",
	"bfs/regular":  "69927b03ae6700c7",
	"bfs/seed":     "6a1c036c9d8428c7",
	"bfs/sink":     "5fd3ba725322f1f9",
	"cc":           "c396ca9ad815a0a4",
	"cf8":          "77e603f7d8d182b6",
	"indegree":     "cd5805ef1085dc6c",
	"pagerank":     "25caad0d4a0ce6f8",
	"ppr/hub":      "643395851aef8e1e",
	"ppr/isolated": "fda1a106d8b6dd59",
	"ppr/regular":  "7a5d611343ff9c26",
	"ppr/seed":     "f9b5f4b91ed55977",
	"ppr/sink":     "801690c65255dbe7",
}

// resultHash is the FNV-1a 64 hash of res's value bits, iteration count and
// delta bits, little-endian, in that order.
func resultHash(res *vprog.Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(res.Iterations))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.Delta))
	h.Write(b[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenResultHashes runs InDegree, PageRank, CF (k = 8) and CC, and
// PPR and BFS from one source of every node class, on a built and a
// .mixp-mapped engine at Threads 1, and compares each answer's hash with
// the committed one.
func TestGoldenResultHashes(t *testing.T) {
	g := frontierGraph(t, 1500, 12000, 1.3, 48)
	engines := servingEngines(t, g, Config{Side: 64, Threads: 1})
	classes := classSources(engines["built"])
	if len(classes) != 5 {
		t.Fatalf("golden graph has node classes %v, want all five", classes)
	}
	progs := map[string]func() vprog.Program{
		"indegree": func() vprog.Program { return algo.NewInDegree(5) },
		"pagerank": func() vprog.Program { return algo.NewPageRank(g, 0.85, 1e-9, 100) },
		"cf8":      func() vprog.Program { return algo.NewCF(g, 8, 5) },
		"cc":       func() vprog.Program { return algo.NewCC(g) },
	}
	for class, s := range classes {
		progs["ppr/"+class] = func() vprog.Program { return algo.NewPersonalizedPageRank(g, s, 0.85, 1e-6, 100) }
		progs["bfs/"+class] = func() vprog.Program { return algo.NewBFS(g, s) }
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, kind := range []string{"built", "mapped"} {
		e := engines[kind]
		for _, name := range names {
			res, err := e.Run(progs[name]())
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			got := resultHash(res)
			if want := goldenHashes[name]; got != want {
				t.Errorf("%s/%s: hash %s, want %s", kind, name, got, want)
			}
		}
	}
}
