package bench

import (
	"strings"
	"testing"
)

// Small options so the harness tests run quickly; the shape assertions are
// about structure, not timing.
func fastOpts() Options {
	return Options{Shrink: 256, Iters: 2, Graphs: []string{"wiki", "road"}}
}

func TestTable1ShapesMatchPaper(t *testing.T) {
	rows, err := Table1(Options{Shrink: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byName := make(map[string]Table1Row)
	for _, r := range rows {
		byName[r.Graph] = r
		sum := r.Reg + r.Seed + r.Sink + r.Iso
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s: class percentages sum to %v", r.Graph, sum)
		}
	}
	// Paper Table 1 shapes: skewed crawls have tiny V_hub and huge E_hub;
	// non-skewed graphs have V_hub near 50% and moderate E_hub.
	if w := byName["weibo"]; w.VHub > 5 || w.EHub < 90 {
		t.Errorf("weibo: vhub=%.1f ehub=%.1f, want <=5 / >=90", w.VHub, w.EHub)
	}
	if r := byName["road"]; r.VHub < 25 || r.EHub > 90 {
		t.Errorf("road: vhub=%.1f ehub=%.1f, want >=25 / <=90", r.VHub, r.EHub)
	}
	if u := byName["urand"]; u.Reg < 99 {
		t.Errorf("urand: reg=%.1f, want ~100", u.Reg)
	}
	if w := byName["wiki"]; w.Sink < 30 {
		t.Errorf("wiki: sink=%.1f, want ~45", w.Sink)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "weibo") || !strings.Contains(out, "Vhub%") {
		t.Error("formatted table missing expected content")
	}
}

func TestTable2AlphaBetaTargets(t *testing.T) {
	rows, err := Table2(Options{Shrink: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]float64{ // alpha, beta targets from the paper
		"weibo": {0.01, 0.06},
		"track": {0.46, 0.60},
		"wiki":  {0.22, 0.78},
		"pld":   {0.56, 0.84},
		"road":  {1, 1},
		"urand": {1, 1},
	}
	for _, r := range rows {
		tgt, ok := want[r.Graph]
		if !ok {
			continue
		}
		if !within(r.Alpha, tgt[0], 0.1) {
			t.Errorf("%s: alpha=%.3f, paper %.2f", r.Graph, r.Alpha, tgt[0])
		}
		if !within(r.Beta, tgt[1], 0.12) {
			t.Errorf("%s: beta=%.3f, paper %.2f", r.Graph, r.Beta, tgt[1])
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "alpha") {
		t.Error("formatted table missing header")
	}
}

func TestTable3StructureAndPositive(t *testing.T) {
	cells, err := Table3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 4 algorithms × 5 frameworks × 2 graphs.
	if len(cells) != 4*5*2 {
		t.Fatalf("cells = %d, want 40", len(cells))
	}
	for _, c := range cells {
		if c.Seconds <= 0 {
			t.Errorf("%s/%s/%s: non-positive time %v", c.Framework, c.Algorithm, c.Graph, c.Seconds)
		}
	}
	out := FormatTable3(cells)
	for _, token := range []string{"== IN", "== BFS", "Mixen", "GPOP-like", "Geomean"} {
		if !strings.Contains(out, token) {
			t.Errorf("formatted table missing %q", token)
		}
	}
}

func TestTable4AllPositive(t *testing.T) {
	rows, err := Table4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"gpop": r.GPOP, "ligra": r.Ligra, "polymer": r.Polymer,
			"graphmat": r.GraphMat, "mixen": r.MixenTotal,
		} {
			if v <= 0 {
				t.Errorf("%s/%s: non-positive prep time", r.Graph, name)
			}
		}
		if !within(r.MixenTotal, r.MixenFilter+r.MixenPart, 1e-9) {
			t.Errorf("%s: mixen total != filter+partition", r.Graph)
		}
	}
	if !strings.Contains(FormatTable4(rows), "Mx.Filt") {
		t.Error("formatted table missing header")
	}
}

func TestFig4NormalizationAndShape(t *testing.T) {
	rows, err := Fig4(Options{Shrink: 256, Iters: 2, Graphs: []string{"wiki"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 variants", len(rows))
	}
	var mixenTraffic, pullTraffic int64
	maxNorm := 0.0
	for _, r := range rows {
		if r.NormTime < 0 || r.NormTime > 1 || r.NormTraffic < 0 || r.NormTraffic > 1 {
			t.Errorf("%s: norms out of [0,1]: %v %v", r.Variant, r.NormTime, r.NormTraffic)
		}
		if r.NormTime > maxNorm {
			maxNorm = r.NormTime
		}
		switch r.Variant {
		case "mixen":
			mixenTraffic = r.Traffic
		case "pull":
			pullTraffic = r.Traffic
		}
	}
	if maxNorm != 1 {
		t.Error("per-graph normalization must peak at 1")
	}
	// Fig 4's core claim on skewed graphs: Mixen's modelled traffic is the
	// smallest of the three variants.
	if mixenTraffic >= pullTraffic {
		t.Errorf("mixen traffic %d !< pull traffic %d on wiki-like", mixenTraffic, pullTraffic)
	}
	if !strings.Contains(FormatFig4(rows), "normTrf") {
		t.Error("formatted figure missing header")
	}
}

func TestFig5MissShapes(t *testing.T) {
	// Shrink 64 keeps the property arrays larger than the scaled L2, the
	// regime Figure 5 measures; at extreme shrinks everything fits in L1
	// and the comparison degenerates.
	rows, err := Fig5(Options{Shrink: 16, Iters: 1, Graphs: []string{"wiki"}})
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[string]float64{}
	for _, r := range rows {
		ratios[r.Variant] = r.MissRatio
		if r.NormHits+r.NormMisses > 1.0001 {
			t.Errorf("%s: normalized refs exceed 1", r.Variant)
		}
	}
	// §6.3: the pull variant's miss ratio dwarfs the blocked variants'.
	if ratios["pull"] <= ratios["mixen"] {
		t.Errorf("pull miss ratio %.3f !> mixen %.3f", ratios["pull"], ratios["mixen"])
	}
	if !strings.Contains(FormatFig5(rows), "missRatio") {
		t.Error("formatted figure missing header")
	}
}

func TestFig6SweepStructure(t *testing.T) {
	rows, err := Fig6(Options{Shrink: 256, Iters: 2, Graphs: []string{"wiki"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig6Sides()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Fig6Sides()))
	}
	peak := 0.0
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("side %d: non-positive time", r.Side)
		}
		if r.NormTime > peak {
			peak = r.NormTime
		}
	}
	if peak != 1 {
		t.Error("normalization must peak at 1")
	}
	if !strings.Contains(FormatFig6(rows), "normTime") {
		t.Error("formatted figure missing header")
	}
}

func TestFig7SweepStructure(t *testing.T) {
	rows, err := Fig7(Options{Shrink: 64, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig7Sides()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Fig7Sides()))
	}
	for _, r := range rows {
		if r.TrafficBytes <= 0 || r.Seconds <= 0 {
			t.Errorf("side %d: non-positive measurements", r.Side)
		}
	}
	if !strings.Contains(FormatFig7(rows), "LLC hits") {
		t.Error("formatted figure missing header")
	}
}

func TestAblationStructure(t *testing.T) {
	rows, err := Ablation(Options{Shrink: 256, Iters: 2, Graphs: []string{"wiki"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ablationSpecs()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ablationSpecs()))
	}
	features := map[string]bool{}
	for _, r := range rows {
		if r.OnSec <= 0 || r.OffSec <= 0 {
			t.Errorf("%s: non-positive timings", r.Feature)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s: non-positive speedup", r.Feature)
		}
		features[r.Feature] = true
	}
	for _, want := range []string{"cache-step", "hub-order", "edge-compression", "load-balance", "active-mask"} {
		if !features[want] {
			t.Errorf("missing feature %q", want)
		}
	}
	if !strings.Contains(FormatAblation(rows), "off/on") {
		t.Error("formatted ablation missing header")
	}
}

func TestAutotuneStudyStructure(t *testing.T) {
	rows, err := AutotuneStudy(Options{Shrink: 256, Iters: 2, Graphs: []string{"wiki"}})
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]int{}
	best := 0
	for _, r := range rows {
		if r.Side <= 0 || r.MainSec <= 0 {
			t.Errorf("%s/%s: malformed row %+v", r.Graph, r.Source, r)
		}
		sources[r.Source]++
		if r.Best {
			best++
			if r.Source != "sweep" {
				t.Errorf("best marked on non-sweep row %+v", r)
			}
		}
	}
	if best != 1 {
		t.Fatalf("%d best rows, want 1", best)
	}
	for _, s := range []string{"measured", "default"} {
		if sources[s] != 1 {
			t.Errorf("source %q appears %d times, want 1", s, sources[s])
		}
	}
	if sources["sweep"] < 1 {
		t.Error("no sweep rows")
	}
	if !strings.Contains(FormatAutotuneStudy(rows), "tune(s)") {
		t.Error("formatted study missing header")
	}
}

func TestModelStudyOrderings(t *testing.T) {
	rows, err := ModelStudy(Options{Shrink: 128, Graphs: []string{"wiki", "urand"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		// The paper's §3 ordering: Pull moves the least data in theory.
		if r.TheoryPull >= r.TheoryGAS {
			t.Errorf("%s: theory pull >= gas", r.Graph)
		}
		// §5: Mixen traffic undercuts GAS whenever alpha/beta < 1.
		if r.Alpha < 0.95 && r.TheoryMixen >= r.TheoryGAS {
			t.Errorf("%s: theory mixen >= gas at alpha=%.2f", r.Graph, r.Alpha)
		}
		if r.Alpha < 0.95 && r.ImplMixen >= r.ImplGAS {
			t.Errorf("%s: impl mixen >= gas at alpha=%.2f", r.Graph, r.Alpha)
		}
		if r.ImplMixenRnd > r.ImplGASRnd {
			t.Errorf("%s: impl mixen random > gas random", r.Graph)
		}
	}
	if !strings.Contains(FormatModelStudy(rows), "thMixen") {
		t.Error("formatted study missing header")
	}
}

func TestPhaseStudyStructure(t *testing.T) {
	rows, err := PhaseStudy(Options{Shrink: 128, Iters: 4, Graphs: []string{"weibo", "road"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byName := map[string]PhaseRow{}
	for _, r := range rows {
		if r.PreSec <= 0 || r.MainSec <= 0 || r.PostSec < 0 {
			t.Errorf("%s: non-positive phases %+v", r.Graph, r)
		}
		if r.Iterations != 4 {
			t.Errorf("%s: iterations = %d", r.Graph, r.Iterations)
		}
		byName[r.Graph] = r
	}
	// §6.3's weibo observation: the Pre-Phase (99% of edges are seed
	// edges) dominates relative to road, where no seeds exist at all.
	if byName["weibo"].PreShare <= byName["road"].PreShare {
		t.Errorf("weibo preShare %.3f !> road %.3f",
			byName["weibo"].PreShare, byName["road"].PreShare)
	}
	if !strings.Contains(FormatPhaseStudy(rows), "preShare") {
		t.Error("formatted study missing header")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Table1(Options{Graphs: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown graph")
	}
	if _, err := Table3(Options{Graphs: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown graph")
	}
}

func TestPaperNames(t *testing.T) {
	if PaperName("mixen") != "Mixen" || PaperName("pull") != "GraphMat-like" {
		t.Fatal("paper name mapping broken")
	}
	if PaperName("zzz") != "zzz" {
		t.Fatal("unknown names must pass through")
	}
}

func TestBFSSourceDeterministic(t *testing.T) {
	o := Options{Shrink: 256}.withDefaults()
	graphs, _, err := o.buildGraphs()
	if err != nil {
		t.Fatal(err)
	}
	g := graphs["wiki"]
	if bfsSource(g) != bfsSource(g) {
		t.Fatal("source selection must be deterministic")
	}
	if g.OutDegree(bfsSource(g)) == 0 {
		t.Fatal("source must have out-edges on a non-empty graph")
	}
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
