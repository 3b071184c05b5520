// Package bench reproduces the paper's evaluation (§6): one driver per
// table and figure, producing the rows and series the paper reports, plus
// the studies behind its design claims. cmd/mixenbench is a thin wrapper
// around it. Performance claims about this implementation are measured by
// the benchmark/ harness, not here.
//
// Per-experiment index (see DESIGN.md):
//
//	Table 1  structural characteristics        -> Table1
//	Table 2  dataset attributes (n, m, α, β)    -> Table2
//	Table 3  processing time per framework      -> Table3
//	Table 4  preprocessing overheads            -> Table4
//	Fig 4    exec time + memory traffic         -> Fig4
//	Fig 5    L2 references (hits/misses)        -> Fig5
//	Fig 6    exec time vs block size            -> Fig6
//	Fig 7    LLC hits & traffic vs block size   -> Fig7
//	§4–5     design-choice ablation             -> Ablation
//	§3, §5   analytic vs implemented traffic    -> ModelStudy
//	§6.3     Pre/Main/Post-Phase split          -> PhaseStudy
//	tuner    AutoTune vs exhaustive side sweep  -> AutotuneStudy
package bench

import (
	"fmt"
	"time"

	"mixen/internal/algo"
	"mixen/internal/baseline"
	"mixen/internal/core"
	"mixen/internal/gen"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// Options tunes every experiment driver.
type Options struct {
	// Shrink divides the preset graph sizes (1 = full laptop scale).
	Shrink int
	// Iters is the fixed iteration count for the iterative algorithms
	// (the paper uses 100; smaller values keep CI runs fast).
	Iters int
	// Threads for all engines (0 = all cores).
	Threads int
	// Graphs restricts the preset list (nil = all eight).
	Graphs []string
	// CFWidth is the latent dimension for collaborative filtering.
	CFWidth int
}

func (o Options) withDefaults() Options {
	if o.Shrink < 1 {
		o.Shrink = 8
	}
	if o.Iters < 1 {
		o.Iters = 10
	}
	if o.CFWidth < 1 {
		o.CFWidth = 8
	}
	return o
}

func (o Options) presets() ([]gen.Preset, error) {
	all := gen.Presets()
	if len(o.Graphs) == 0 {
		return all, nil
	}
	var out []gen.Preset
	for _, name := range o.Graphs {
		p, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// buildGraphs materializes the selected presets once.
func (o Options) buildGraphs() (map[string]*graph.Graph, []string, error) {
	presets, err := o.presets()
	if err != nil {
		return nil, nil, err
	}
	graphs := make(map[string]*graph.Graph, len(presets))
	var order []string
	for _, p := range presets {
		g, err := p.Build(o.Shrink)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: build %s: %w", p.Name, err)
		}
		graphs[p.Name] = g
		order = append(order, p.Name)
	}
	return graphs, order, nil
}

// Frameworks lists the engine names in the paper's comparison order.
func Frameworks() []string { return []string{"mixen", "blockgas", "push", "polymer", "pull"} }

// PaperName maps an engine name to the framework it stands in for.
func PaperName(engine string) string {
	switch engine {
	case "mixen":
		return "Mixen"
	case "blockgas":
		return "GPOP-like"
	case "push":
		return "Ligra-like"
	case "polymer":
		return "Polymer-like"
	case "pull":
		return "GraphMat-like"
	default:
		return engine
	}
}

// newEngine constructs the named engine over g. width is the property lane
// count the engine must support (blocked engines pre-size their bins).
func newEngine(name string, g *graph.Graph, threads, width int) (vprog.Engine, error) {
	switch name {
	case "mixen":
		return core.New(g, core.Config{Threads: threads})
	case "blockgas":
		return baseline.NewBlockGAS(g, baseline.BlockGASConfig{Threads: threads, Width: width})
	case "push":
		return baseline.NewPush(g, threads), nil
	case "polymer":
		return baseline.NewPolymer(g, threads, 0), nil
	case "pull":
		return baseline.NewPull(g, threads), nil
	default:
		return nil, fmt.Errorf("bench: unknown engine %q", name)
	}
}

// Algorithms lists the benchmarked algorithm names in the paper's order.
func Algorithms() []string { return []string{"IN", "PR", "CF", "BFS"} }

// makeProgram builds the vertex program for one algorithm over g.
func makeProgram(alg string, g *graph.Graph, o Options) (vprog.Program, error) {
	switch alg {
	case "IN":
		return algo.NewInDegree(o.Iters), nil
	case "PR":
		return algo.NewPageRank(g, 0.85, 0, o.Iters), nil
	case "CF":
		return algo.NewCF(g, o.CFWidth, o.Iters), nil
	case "BFS":
		return algo.NewBFS(g, bfsSource(g)), nil
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", alg)
	}
}

// bfsSource picks the highest out-degree node, the convention GAP-style
// harnesses use to get non-trivial traversals deterministically.
func bfsSource(g *graph.Graph) uint32 {
	var best graph.Node
	var bestDeg int64 = -1
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(graph.Node(v)); d > bestDeg {
			bestDeg, best = d, graph.Node(v)
		}
	}
	return uint32(best)
}

// widthOf returns the lane count an algorithm needs.
func widthOf(alg string, o Options) int {
	if alg == "CF" {
		return o.CFWidth
	}
	return 1
}

// timeRun measures one engine×algorithm cell: per-iteration seconds for the
// fixed-iteration algorithms, total seconds for BFS (like Table 3).
func timeRun(e vprog.Engine, g *graph.Graph, alg string, o Options) (float64, error) {
	if alg == "BFS" {
		t0 := time.Now()
		_, err := algo.RunBFS(e, g, bfsSource(g))
		return time.Since(t0).Seconds(), err
	}
	prog, err := makeProgram(alg, g, o)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := e.Run(prog)
	if err != nil {
		return 0, err
	}
	iters := res.Iterations
	if iters == 0 {
		iters = 1
	}
	return time.Since(t0).Seconds() / float64(iters), nil
}
