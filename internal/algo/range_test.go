package algo

import (
	"math"
	"math/rand"
	"testing"

	"mixen/internal/gen"
	"mixen/internal/vprog"
)

// TestRangeFormsMatchPerNode holds each program's vprog.Ranger methods to
// its per-node ones on the same inputs: InitRange and ScaleRange against
// Init and Scale node by node, and ApplyRange against Apply with the
// deltas folded in node order, bit for bit — over finite inputs and
// over all of them, both with a separate out and
// with out aliasing sum or prev, as the engine calls it. The inputs mix ordinary
// values with ±0, +Inf and values within NodeTol of prev.
func TestRangeFormsMatchPerNode(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 400, M: 3000,
		RegularFrac: 0.5, SeedFrac: 0.25, SinkFrac: 0.15,
		ZipfS: 1.2, ZipfV: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	teleport := make([]float64, n)
	for v := range teleport {
		teleport[v] = 1 / float64(n)
	}
	ppr := NewPersonalizedPageRank(g, 7, 0.85, 1e-6, 50)
	pprT := NewPersonalizedPageRank(g, 7, 0.85, 1e-6, 50)
	pprT.Teleport = teleport
	progs := map[string]vprog.Program{
		"indegree":     NewInDegree(3),
		"pagerank":     NewPageRank(g, 0.85, 1e-6, 50),
		"ppr":          ppr,
		"ppr/teleport": pprT,
		"bfs":          NewBFS(g, 7),
		"cc":           NewCC(g),
	}
	rng := rand.New(rand.NewSource(1))
	old := make([]uint32, n)
	for k := range old {
		old[k] = uint32(rng.Intn(n))
	}
	old[0] = 7 // the PPR and BFS source
	// The first half of the nodes gets finite inputs, so that a delta
	// folded out of node order shows in its bits; the second half adds
	// +Inf, which makes every rank delta +Inf.
	sum := make([]float64, n)
	prev := make([]float64, n)
	for k := range sum {
		switch {
		case k%6 == 0:
			sum[k], prev[k] = 0, math.Copysign(0, -1)
		case k%6 == 1 && k >= n/2:
			sum[k], prev[k] = math.Inf(1), rng.Float64()
		case k%6 == 2:
			prev[k] = rng.Float64()
			sum[k] = prev[k] + 1e-12
		default:
			sum[k], prev[k] = rng.Float64()*4, rng.Float64()
		}
	}
	for name, prog := range progs {
		r := vprog.RangerOf(prog)
		if r == nil {
			t.Fatalf("%s: %T does not implement vprog.Ranger", name, prog)
		}
		want := make([]float64, n)
		got := make([]float64, n)
		for k, v := range old {
			prog.Init(v, want[k:k+1])
		}
		r.InitRange(old, got)
		sameBits(t, name+"/InitRange", got, want)
		for k, v := range old {
			want[k] = prog.Scale(v)
		}
		r.ScaleRange(old, got)
		sameBits(t, name+"/ScaleRange", got, want)

		var wantD, finiteD float64
		for k, v := range old {
			wantD += prog.Apply(v, sum[k:k+1], prev[k:k+1], want[k:k+1])
			if k == n/2-1 {
				finiteD = wantD
			}
		}
		gotD := r.ApplyRange(old[:n/2], sum, prev, got)
		sameBits(t, name+"/ApplyRange finite delta", []float64{gotD}, []float64{finiteD})
		gotD = r.ApplyRange(old, sum, prev, got)
		sameBits(t, name+"/ApplyRange", got, want)
		sameBits(t, name+"/ApplyRange delta", []float64{gotD}, []float64{wantD})
		alias := append([]float64(nil), sum...)
		aliasD := r.ApplyRange(old, alias, prev, alias)
		sameBits(t, name+"/ApplyRange out=sum", alias, want)
		sameBits(t, name+"/ApplyRange out=sum delta", []float64{aliasD}, []float64{wantD})
		alias = append(alias[:0], prev...)
		aliasD = r.ApplyRange(old, sum, alias, alias)
		sameBits(t, name+"/ApplyRange out=prev", alias, want)
		sameBits(t, name+"/ApplyRange out=prev delta", []float64{aliasD}, []float64{wantD})
	}
}

// TestRangerOfWidth: only width-1 programs are ranged.
func TestRangerOfWidth(t *testing.T) {
	g := tiny(t)
	if vprog.RangerOf(NewCF(g, 1, 3)) != nil {
		t.Error("CF implements vprog.Ranger")
	}
	b, err := vprog.NewBatch(g.NumNodes(), NewBFS(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if vprog.RangerOf(b) != nil {
		t.Error("a batch of one is ranged")
	}
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("%s: element %d = %v, want %v", name, k, got[k], want[k])
			return
		}
	}
}
