package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"mixen/internal/analyze"
	"mixen/internal/graph"
)

func TestRMATBasic(t *testing.T) {
	g, err := RMAT(GAPRMATConfig(10, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1024 {
		t.Fatalf("n = %d, want 1024", g.NumNodes())
	}
	if g.NumEdges() != 8*1024 {
		t.Fatalf("m = %d, want %d", g.NumEdges(), 8*1024)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, err := RMAT(GAPRMATConfig(8, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(GAPRMATConfig(8, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.OutIdx {
		if a.OutIdx[i] != b.OutIdx[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestRMATSkewAndIsolated(t *testing.T) {
	g, err := RMAT(GAPRMATConfig(12, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := analyze.Compute(g)
	if s.VHub > 0.25 {
		t.Errorf("rmat hub fraction %v too high for a skewed graph", s.VHub)
	}
	if s.EHub < 0.5 {
		t.Errorf("rmat hub edge share %v too low for a skewed graph", s.EHub)
	}
	if s.IsolatedFrac < 0.1 {
		t.Errorf("rmat isolated fraction %v; R-MAT at ef=16 should leave many untouched nodes", s.IsolatedFrac)
	}
}

func TestRMATRejectsBadConfig(t *testing.T) {
	bad := []RMATConfig{
		{Scale: -1, EdgeFctr: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 40, EdgeFctr: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 4, EdgeFctr: -1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 4, EdgeFctr: 1, A: 0.9, B: 0.3, C: 0.25, D: 0.25},
	}
	for i, cfg := range bad {
		if _, err := RMAT(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestKroneckerSymmetric(t *testing.T) {
	g, err := Kronecker(9, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(graph.Node(u)) {
			if !g.HasEdge(v, graph.Node(u)) {
				t.Fatalf("missing reverse edge %d->%d", v, u)
			}
		}
	}
	// Undirected graphs must have no seed or sink nodes.
	c := analyze.Classify(g)
	if c.Counts[analyze.Seed] != 0 || c.Counts[analyze.Sink] != 0 {
		t.Fatal("symmetrized graph has directional node classes")
	}
}

func TestURand(t *testing.T) {
	g, err := URand(2048, 32768, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 32768 {
		t.Fatalf("m = %d, want 32768", g.NumEdges())
	}
	s := analyze.Compute(g)
	if s.VHub < 0.3 || s.VHub > 0.7 {
		t.Errorf("urand hub fraction %v; uniform graphs should sit near 0.5", s.VHub)
	}
	if s.Alpha < 0.99 {
		t.Errorf("urand alpha %v; uniform bidirected graphs should be ~all regular", s.Alpha)
	}
	if _, err := URand(0, 8, 1); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestRoadGrid(t *testing.T) {
	g, err := Road(RoadConfig{Rows: 20, Cols: 30, Drop: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 600 {
		t.Fatalf("n = %d, want 600", g.NumNodes())
	}
	// Full grid: 2*(r*(c-1) + c*(r-1)) directed edges.
	want := int64(2 * (20*29 + 30*19))
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	s := analyze.Compute(g)
	if s.Alpha != 1 {
		t.Errorf("full grid alpha = %v, want 1 (all regular)", s.Alpha)
	}
}

func TestRoadDropCreatesVariance(t *testing.T) {
	g, err := Road(RoadConfig{Rows: 64, Cols: 64, Drop: 0.15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := analyze.Compute(g)
	if s.VHub < 0.25 || s.VHub > 0.85 {
		t.Errorf("road hub fraction %v out of plausible band", s.VHub)
	}
	if s.EHub > 0.9 {
		t.Errorf("road hub edge share %v; road networks must not be hub-dominated", s.EHub)
	}
}

func TestRoadRejectsBadConfig(t *testing.T) {
	if _, err := Road(RoadConfig{Rows: 0, Cols: 5}); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := Road(RoadConfig{Rows: 5, Cols: 5, Drop: 1.0}); err == nil {
		t.Error("expected error for drop=1")
	}
}

func TestSmallWorldLattice(t *testing.T) {
	g, err := SmallWorld(20, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Regular lattice: every node has exactly 2k undirected neighbours
	// (4k directed edge slots including duplicates from both directions).
	if g.NumEdges() != int64(2*20*2) {
		t.Fatalf("m = %d, want 80", g.NumEdges())
	}
	s := analyze.Compute(g)
	if s.Alpha != 1 {
		t.Fatalf("lattice alpha = %v, want 1", s.Alpha)
	}
	// Ring lattice with k=2 has diameter n/(2k) = 5.
	if d := analyze.ApproxDiameter(g, 0); d != 5 {
		t.Fatalf("lattice diameter = %d, want 5", d)
	}
}

func TestSmallWorldRewiringShrinksDiameter(t *testing.T) {
	lattice, err := SmallWorld(400, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rewired, err := SmallWorld(400, 2, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dl := analyze.ApproxDiameter(lattice, 0)
	dr := analyze.ApproxDiameter(rewired, 0)
	if dr >= dl {
		t.Fatalf("rewired diameter %d !< lattice %d (small-world effect)", dr, dl)
	}
}

func TestSmallWorldValidation(t *testing.T) {
	if _, err := SmallWorld(0, 1, 0, 1); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := SmallWorld(10, 5, 0, 1); err == nil {
		t.Error("expected error for 2k >= n")
	}
	if _, err := SmallWorld(10, 2, 1.5, 1); err == nil {
		t.Error("expected error for beta > 1")
	}
}

func TestSkewedClassMixExact(t *testing.T) {
	cfg := SkewedConfig{
		N: 4000, M: 40000,
		RegularFrac: 0.25, SeedFrac: 0.35, SinkFrac: 0.30,
		ZipfS: 1.3, ZipfV: 1, Seed: 11,
	}
	g, err := Skewed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := analyze.Classify(g)
	n := float64(g.NumNodes())
	if got := float64(c.Counts[analyze.Regular]) / n; !within(got, 0.25, 0.01) {
		t.Errorf("regular frac = %v, want 0.25", got)
	}
	if got := float64(c.Counts[analyze.Seed]) / n; !within(got, 0.35, 0.01) {
		t.Errorf("seed frac = %v, want 0.35", got)
	}
	if got := float64(c.Counts[analyze.Sink]) / n; !within(got, 0.30, 0.01) {
		t.Errorf("sink frac = %v, want 0.30", got)
	}
	if got := float64(c.Counts[analyze.Isolated]) / n; !within(got, 0.10, 0.01) {
		t.Errorf("isolated frac = %v, want 0.10", got)
	}
}

func TestSkewedBetaBias(t *testing.T) {
	cfg := SkewedConfig{
		N: 5000, M: 100000,
		RegularFrac: 0.22, SeedFrac: 0.33, SinkFrac: 0.45,
		ZipfS: 1.25, ZipfV: 2,
		SrcRegularBias: 0.88, DstRegularBias: 0.89,
		Seed: 12,
	}
	g, err := Skewed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := analyze.Compute(g)
	if !within(s.Beta, 0.78, 0.08) {
		t.Errorf("beta = %v, want ~0.78 (wiki target)", s.Beta)
	}
}

func TestSkewedHubConcentration(t *testing.T) {
	cfg := SkewedConfig{
		N: 5000, M: 200000,
		RegularFrac: 0.01, SeedFrac: 0.99,
		ZipfS: 1.3, ZipfV: 1,
		SrcRegularBias: 0.06,
		Seed:           13,
	}
	g, err := Skewed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := analyze.Compute(g)
	if s.VHub > 0.02 {
		t.Errorf("vhub = %v, want <= 0.02 (weibo-like)", s.VHub)
	}
	if s.EHub < 0.9 {
		t.Errorf("ehub = %v, want >= 0.9 (weibo-like)", s.EHub)
	}
}

func TestSkewedValidation(t *testing.T) {
	bad := []SkewedConfig{
		{N: 0, ZipfS: 1.2, ZipfV: 1},
		{N: 10, M: -1, ZipfS: 1.2, ZipfV: 1},
		{N: 10, RegularFrac: 0.8, SeedFrac: 0.5, ZipfS: 1.2, ZipfV: 1},
		{N: 10, M: 5, SinkFrac: 1.0, ZipfS: 1.2, ZipfV: 1},               // no sources
		{N: 10, M: 5, SeedFrac: 1.0, ZipfS: 1.2, ZipfV: 1},               // no destinations
		{N: 10, RegularFrac: 1, ZipfS: 0.5, ZipfV: 1},                    // bad zipf s
		{N: 10, RegularFrac: 1, ZipfS: 1.2, ZipfV: 0},                    // bad zipf v
		{N: 10, RegularFrac: 1, ZipfS: 1.2, ZipfV: 1, OutZipfS: 0.9},     // bad out zipf
		{N: 10, RegularFrac: 1, ZipfS: 1.2, ZipfV: 1, SrcRegularBias: 2}, // bad bias
	}
	for i, cfg := range bad {
		if _, err := Skewed(cfg); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, cfg)
		}
	}
}

func TestSkewedDeterministic(t *testing.T) {
	cfg := SkewedConfig{N: 500, M: 2000, RegularFrac: 0.5, SeedFrac: 0.3, SinkFrac: 0.2, ZipfS: 1.2, ZipfV: 1, Seed: 77}
	a, err := Skewed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Skewed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.OutIdx {
		if a.OutIdx[i] != b.OutIdx[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestPresetsBuildSmall(t *testing.T) {
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, err := p.Build(256)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() == 0 || g.NumEdges() == 0 {
				t.Fatalf("%s: degenerate graph %v", p.Name, g)
			}
			s := analyze.Compute(g)
			if p.Skewed && p.Name != "rmat" && p.Name != "kron" {
				if s.EHub < 0.5 {
					t.Errorf("%s: ehub = %v, expected hub-dominated", p.Name, s.EHub)
				}
			}
			if !p.Skewed && s.Alpha < 0.99 {
				t.Errorf("%s: alpha = %v, non-skewed presets are all-regular", p.Name, s.Alpha)
			}
		})
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("wiki")
	if err != nil || p.Name != "wiki" {
		t.Fatalf("ByName(wiki) = %v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestPresetShrinkValidation(t *testing.T) {
	for _, p := range Presets() {
		if _, err := p.Build(0); err == nil {
			t.Errorf("%s: expected error for shrink=0", p.Name)
		}
	}
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestFloatStreamMatchesMathRand: the inline stream is math/rand's Float64
// stream, draw for draw, well past the 607 primed outputs.
func TestFloatStreamMatchesMathRand(t *testing.T) {
	draws := 2_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, seed := range []int64{1, 3, 42, -7} {
		rng := rand.New(rand.NewSource(seed))
		st := newFloatStream(seed)
		// Uneven buffer sizes, so that fills start and end at every
		// offset of the ring and of the primed outputs.
		buf := make([]float64, 1024)
		for i, size := 0, 1; i < draws; i, size = i+size, size%997+13 {
			st.fill(buf[:size])
			for k, got := range buf[:size] {
				if want := rng.Float64(); want != got {
					t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, i+k, got, want)
				}
			}
		}
	}
}

// TestRMATGoldenGraph pins R-MAT output to the graphs the per-edge
// math/rand generator produced: an FNV-1a hash over OutPtr and OutIdx at
// scale 14, edge factor 16, for three seeds, directed and symmetric.
func TestRMATGoldenGraph(t *testing.T) {
	golden := []struct {
		seed int64
		sym  bool
		hash uint64
	}{
		{1, false, 0x3fee38beee5de394},
		{3, false, 0x287945eb8dddcef8},
		{42, false, 0x7b26c9081e4c3e74},
		{1, true, 0xcc5eb299d4a16d4a},
		{3, true, 0x54b2fa666737bbcf},
		{42, true, 0x32ffa160be754d35},
	}
	for _, gc := range golden {
		cfg := GAPRMATConfig(14, 16, gc.seed)
		cfg.Symmetric = gc.sym
		g, err := RMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, p := range g.OutPtr {
			binary.LittleEndian.PutUint64(b[:], uint64(p))
			h.Write(b[:])
		}
		for _, v := range g.OutIdx {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		}
		if got := h.Sum64(); got != gc.hash {
			t.Errorf("seed %d symmetric %v: graph hash %#x, want %#x", gc.seed, gc.sym, got, gc.hash)
		}
	}
}
