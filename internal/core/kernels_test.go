package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mixen/internal/block"
	"mixen/internal/graph"
	"mixen/internal/vprog"
)

// kernelCase is one synthetic sub-block: entry k has source srcs[k] and
// the destination run runs[k] (never empty — every bin entry has an edge).
type kernelCase struct {
	name string
	n    int // nodes: x, scale and y cover [0, n)
	srcs []graph.Node
	runs [][]uint32
}

// flagged encodes the runs as a block.SubBlock.Dst stream.
func (c kernelCase) flagged() []uint32 {
	var dst []uint32
	for _, run := range c.runs {
		for e, d := range run {
			if e == 0 {
				d |= block.RunStart
			}
			dst = append(dst, d)
		}
	}
	return dst
}

// refGather is the nested per-source loop the flat kernels replaced.
func refGather(ring vprog.Ring, w int, y, vals []float64, runs [][]uint32) {
	for k, run := range runs {
		for _, d := range run {
			for l := 0; l < w; l++ {
				yi := int(d)*w + l
				y[yi] = ring.Combine(y[yi], vals[k*w+l])
			}
		}
	}
}

func refScatter(ring vprog.Ring, w int, vals, x, scale []float64, srcs []graph.Node) {
	for k, s := range srcs {
		for l := 0; l < w; l++ {
			if ring == vprog.Sum {
				vals[k*w+l] = x[int(s)*w+l] * scale[s]
			} else {
				vals[k*w+l] = x[int(s)*w+l] + scale[s]
			}
		}
	}
}

func kernelTable() []kernelCase {
	single := kernelCase{name: "single_edge_entries", n: 40}
	for k := 0; k < 25; k++ {
		single.srcs = append(single.srcs, graph.Node(k))
		single.runs = append(single.runs, []uint32{uint32((k * 7) % 40)})
	}
	hub := kernelCase{name: "one_hub_run", n: 300, srcs: []graph.Node{2, 9, 11}}
	hubRun := make([]uint32, 257)
	for i := range hubRun {
		hubRun[i] = uint32(i + 20)
	}
	hub.runs = [][]uint32{{5}, hubRun, {5, 6}}
	// Compression off: one entry per edge, the source repeated.
	nocomp := kernelCase{name: "disable_compression", n: 16}
	for _, e := range [][2]uint32{{3, 1}, {3, 4}, {3, 9}, {7, 1}, {7, 1}, {12, 15}} {
		nocomp.srcs = append(nocomp.srcs, e[0])
		nocomp.runs = append(nocomp.runs, []uint32{e[1]})
	}
	// The grid's last column is shorter than Side: ids end at n-1.
	short := kernelCase{name: "last_short_column", n: 67,
		srcs: []graph.Node{0, 1, 66}, runs: [][]uint32{{64, 65, 66}, {66}, {64, 66}}}
	return []kernelCase{single, hub, nocomp, short, {name: "empty_block", n: 8}}
}

func randomKernelCase(rng *rand.Rand) kernelCase {
	c := kernelCase{name: "random", n: 1 + rng.Intn(200)}
	for k, entries := 0, rng.Intn(60); k < entries; k++ {
		c.srcs = append(c.srcs, graph.Node(rng.Intn(c.n)))
		run := make([]uint32, 1+rng.Intn(4))
		if rng.Intn(8) == 0 {
			run = make([]uint32, 1+rng.Intn(90)) // a hub
		}
		for e := range run {
			run[e] = uint32(rng.Intn(c.n)) // duplicates allowed: fold order matters
		}
		c.runs = append(c.runs, run)
	}
	return c
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func randFloats(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64() * 1e3
	}
	return a
}

// checkKernels runs every leaf kernel the (ring, w) dispatch selects on c
// and compares bit for bit against the nested reference.
func checkKernels(t *testing.T, rng *rand.Rand, c kernelCase) {
	t.Helper()
	dst := c.flagged()
	for _, ring := range []vprog.Ring{vprog.Sum, vprog.Min} {
		for _, w := range []int{1, 2, 3, 4, 8, 17} {
			x, scale := randFloats(rng, c.n*w), randFloats(rng, c.n)
			// One spare slot on each side: a kernel writing past its block's
			// bins would corrupt a neighbour's.
			got, want := randFloats(rng, (len(c.srcs)+2)*w), make([]float64, (len(c.srcs)+2)*w)
			copy(want, got)
			scatterBlock(ring, w, got[w:len(got)-w], x, scale, c.srcs)
			refScatter(ring, w, want[w:], x, scale, c.srcs)
			if !sameBits(got, want) {
				t.Fatalf("%s ring=%v w=%d: scatter differs from reference", c.name, ring, w)
			}
			vals := got[w : len(got)-w]
			y, yRef := randFloats(rng, c.n*w), make([]float64, c.n*w)
			copy(yRef, y)
			gatherBlock(ring, w, y, vals, dst)
			refGather(ring, w, yRef, vals, c.runs)
			if !sameBits(y, yRef) {
				t.Fatalf("%s ring=%v w=%d: gather differs from reference", c.name, ring, w)
			}
		}
	}
}

func TestKernelsMatchNestedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range kernelTable() {
		t.Run(c.name, func(t *testing.T) { checkKernels(t, rng, c) })
	}
	t.Run("random", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			checkKernels(t, rng, randomKernelCase(rng))
		}
	})
}

// nestedSum1 is the layout the flagged stream replaced — plain ids plus one
// offset per entry, walked by a per-source inner loop — as a leaf kernel,
// kept only as BenchmarkGatherKernel's yardstick.
func nestedSum1(y, vals []float64, starts []int32, ids []uint32) {
	for k, v := range vals {
		for _, d := range ids[starts[k]:starts[k+1]] {
			y[d] += v
		}
	}
}

// BenchmarkGatherKernel times the Gather leaf kernels alone on one
// synthetic skewed sub-block (mean run ≈ 9 edges, destinations inside a
// 32K-node column), reporting ns per edge.
func BenchmarkGatherKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const side = 32 << 10
	c := kernelCase{n: side}
	edges := 0
	for edges < 1<<20 {
		run := make([]uint32, 1+rng.Intn(4))
		if rng.Intn(10) == 0 {
			run = make([]uint32, 1+rng.Intn(120))
		}
		for e := range run {
			run[e] = uint32(rng.Intn(side))
		}
		c.runs = append(c.runs, run)
		edges += len(run)
	}
	dst := c.flagged()
	perEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
	}
	b.Run("nested/ring=0/w=1", func(b *testing.B) {
		starts, ids := []int32{0}, []uint32(nil)
		for _, run := range c.runs {
			ids = append(ids, run...)
			starts = append(starts, int32(len(ids)))
		}
		vals, y := randFloats(rng, len(c.runs)), make([]float64, side)
		for i := 0; i < b.N; i++ {
			nestedSum1(y, vals, starts, ids)
		}
		perEdge(b)
	})
	for _, ring := range []vprog.Ring{vprog.Sum, vprog.Min} {
		for _, w := range []int{1, 4, 8, 12} {
			vals, y := randFloats(rng, len(c.runs)*w), make([]float64, side*w)
			b.Run(fmt.Sprintf("flat/ring=%d/w=%d", ring, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gatherBlock(ring, w, y, vals, dst)
				}
				perEdge(b)
			})
		}
	}
}
