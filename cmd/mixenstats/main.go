// Command mixenstats prints the connectivity structure of a graph: node
// and edge counts, hub share, the regular/seed/sink/isolated mix, and the
// α/β parameters Mixen's performance model depends on (Tables 1-2).
//
// Usage:
//
//	mixenstats -preset wiki [-shrink 8]
//	mixenstats -edgelist path/to/graph.txt
//	mixenstats -binary path/to/graph.bin
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"mixen"
)

func main() {
	preset := flag.String("preset", "", "dataset stand-in to generate (weibo, track, wiki, pld, rmat, kron, road, urand)")
	shrink := flag.Int("shrink", 8, "divide preset graph sizes by this factor")
	edgelist := flag.String("edgelist", "", "path to a text edge list (src dst per line)")
	binary := flag.String("binary", "", "path to a CSR binary graph")
	detailFlag := flag.Bool("detail", false, "print degree distribution, skew exponent and diameter estimate")
	flag.Parse()

	g, err := loadGraph(*preset, *shrink, *edgelist, *binary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixenstats:", err)
		os.Exit(1)
	}

	detail := *detailFlag
	s := mixen.Analyze(g)
	fmt.Printf("nodes                 %12d\n", s.N)
	fmt.Printf("edges                 %12d\n", s.M)
	fmt.Printf("avg degree            %12.2f\n", g.AvgDegree())
	fmt.Printf("hubs (V_hub)          %11.1f%%\n", 100*s.VHub)
	fmt.Printf("hub edges (E_hub)     %11.1f%%\n", 100*s.EHub)
	fmt.Printf("regular nodes         %11.1f%%\n", 100*s.RegularFrac)
	fmt.Printf("seed nodes            %11.1f%%\n", 100*s.SeedFrac)
	fmt.Printf("sink nodes            %11.1f%%\n", 100*s.SinkFrac)
	fmt.Printf("isolated nodes        %11.1f%%\n", 100*s.IsolatedFrac)
	fmt.Printf("alpha (r/n)           %12.3f\n", s.Alpha)
	fmt.Printf("beta (m~/m)           %12.3f\n", s.Beta)

	if detail {
		h := mixen.InDegreeDistribution(g)
		fmt.Printf("max in-degree         %12d\n", h.MaxDegree)
		fmt.Printf("median in-degree      %12d\n", h.Median)
		fmt.Printf("p99 in-degree         %12d\n", h.P99)
		fmt.Printf("degree gini           %12.3f\n", h.GiniCoefficient())
		gamma := h.PowerLawExponent(3)
		if !math.IsNaN(gamma) {
			fmt.Printf("power-law exponent    %12.2f\n", gamma)
		}
		fmt.Printf("approx diameter       %12d\n", mixen.ApproxDiameter(g, 0))
	}
}

func loadGraph(preset string, shrink int, edgelist, binary string) (*mixen.Graph, error) {
	sources := 0
	for _, s := range []string{preset, edgelist, binary} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of -preset, -edgelist, -binary")
	}
	switch {
	case preset != "":
		return mixen.Dataset(preset, shrink)
	case edgelist != "":
		f, err := os.Open(edgelist)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mixen.ReadEdgeList(f, 0)
	default:
		f, err := os.Open(binary)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mixen.ReadBinary(f)
	}
}
