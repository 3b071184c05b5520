package filter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mixen/internal/gen"
	"mixen/internal/graph"
)

func TestOrderOriginalKeepsRelativeOrder(t *testing.T) {
	g := tiny(t)
	f := FilterWithOptions(g, Options{Order: OrderOriginal})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.NumHub != 0 {
		t.Fatalf("OrderOriginal must not mark hubs, got %d", f.NumHub)
	}
	// Regulars 0, 1, 2 keep original order.
	for i, want := range []graph.Node{0, 1, 2} {
		if f.OldID[i] != want {
			t.Fatalf("OldID[%d] = %d, want %d", i, f.OldID[i], want)
		}
	}
}

func TestOrderingsSameClasses(t *testing.T) {
	g, err := gen.Skewed(gen.SkewedConfig{
		N: 500, M: 3000,
		RegularFrac: 0.4, SeedFrac: 0.3, SinkFrac: 0.2,
		ZipfS: 1.2, ZipfV: 1, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := FilterWithOptions(g, Options{Order: OrderHubFirst})
	b := FilterWithOptions(g, Options{Order: OrderOriginal})
	for _, f := range []*Filtered{a, b} {
		if f.NumRegular != a.NumRegular || f.NumSeed != a.NumSeed ||
			f.NumSink != a.NumSink || f.NumIsolated != a.NumIsolated {
			t.Fatal("ordering policy must not change class counts")
		}
		if f.RegularEdges() != a.RegularEdges() {
			t.Fatal("ordering policy must not change the regular submatrix size")
		}
	}
}

func TestPropertyOrderingsAreValidFilters(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		edges := make([]graph.Edge, rng.Intn(200))
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.Node(rng.Intn(n)), Dst: graph.Node(rng.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		for _, ord := range []RegularOrder{OrderHubFirst, OrderOriginal} {
			if FilterWithOptions(g, Options{Order: ord}).Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
