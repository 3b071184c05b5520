// Package graph provides the core graph substrate shared by every engine:
// a directed graph held simultaneously in CSR (out-edges) and CSC
// (in-edges) form, builders from edge lists, transposition, degree queries,
// validation and binary serialization.
//
// Node identifiers are dense uint32 values in [0, N). The adjacency matrix
// view follows the paper: A[i][j] = 1 iff there is an edge i -> j, CSR rows
// store out-neighbours (column indices), CSC columns store in-neighbours
// (row indices).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mixen/internal/sched"
)

// Node is a dense node identifier.
type Node = uint32

// Edge is a directed link Src -> Dst.
type Edge struct {
	Src, Dst Node
}

// Graph is a directed graph in dual CSR/CSC representation.
//
// Invariants (checked by Validate):
//   - len(OutPtr) == N+1, OutPtr[0] == 0, OutPtr non-decreasing,
//     OutPtr[N] == M == len(OutIdx); same for InPtr/InIdx;
//   - every index value is < N;
//   - every adjacency row is non-decreasing (multi-edges allowed): HasEdge
//     binary-searches rows, block cuts them into per-column runs and filter
//     relabels them as stable partitions, all without re-sorting;
//   - CSR and CSC describe the same edge multiset.
type Graph struct {
	// OutPtr/OutIdx form the CSR: out-neighbours of u are
	// OutIdx[OutPtr[u]:OutPtr[u+1]].
	OutPtr []int64
	OutIdx []Node
	// InPtr/InIdx form the CSC: in-neighbours of v are
	// InIdx[InPtr[v]:InPtr[v+1]].
	InPtr []int64
	InIdx []Node
}

// NumNodes returns N.
func (g *Graph) NumNodes() int { return len(g.OutPtr) - 1 }

// NumEdges returns M.
func (g *Graph) NumEdges() int64 {
	if len(g.OutPtr) == 0 {
		return 0
	}
	return g.OutPtr[len(g.OutPtr)-1]
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u Node) int64 { return g.OutPtr[u+1] - g.OutPtr[u] }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v Node) int64 { return g.InPtr[v+1] - g.InPtr[v] }

// OutNeighbors returns the CSR slice of u's out-neighbours. The returned
// slice aliases the graph's storage and must not be modified.
func (g *Graph) OutNeighbors(u Node) []Node { return g.OutIdx[g.OutPtr[u]:g.OutPtr[u+1]] }

// InNeighbors returns the CSC slice of v's in-neighbours. The returned
// slice aliases the graph's storage and must not be modified.
func (g *Graph) InNeighbors(v Node) []Node { return g.InIdx[g.InPtr[v]:g.InPtr[v+1]] }

// AvgDegree returns M/N, the paper's hub threshold.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// FromEdges builds a Graph with n nodes from the given edge list. Duplicate
// edges are kept (the adjacency matrix entry saturates at the multiset
// level, matching the SpMV semantics used throughout the paper). Edges with
// endpoints >= n yield an error.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge %d->%d out of range for n=%d", e.Src, e.Dst, n)
		}
	}
	g := &Graph{}
	g.OutPtr, g.OutIdx = buildCSR(n, edges, false)
	g.InPtr, g.InIdx = buildCSR(n, edges, true)
	return g, nil
}

// buildCSR constructs the pointer/index arrays; transposed=true swaps the
// roles of Src and Dst (producing the CSC of the original edge set).
// Construction is a two-pass counting sort; above a size threshold both
// passes run across workers with per-worker histograms, so the result is
// deterministic regardless of parallelism (each worker owns a contiguous
// edge chunk and a pre-computed slot range per row, and rows are sorted
// afterwards anyway).
func buildCSR(n int, edges []Edge, transposed bool) ([]int64, []Node) {
	const parallelThreshold = 1 << 16
	threads := sched.DefaultThreads()
	if len(edges) < parallelThreshold || threads == 1 {
		return buildCSRSerial(n, edges, transposed)
	}
	return buildCSRParallel(n, edges, transposed, threads)
}

func buildCSRParallel(n int, edges []Edge, transposed bool, threads int) ([]int64, []Node) {
	key := func(e Edge) (Node, Node) {
		if transposed {
			return e.Dst, e.Src
		}
		return e.Src, e.Dst
	}
	// Pass 1: per-worker histograms over contiguous edge chunks.
	hist := make([][]int32, threads)
	sched.ForStatic(len(edges), threads, func(worker, lo, hi int) {
		h := make([]int32, n)
		for _, e := range edges[lo:hi] {
			k, _ := key(e)
			h[k]++
		}
		hist[worker] = h
	})
	// Prefix across rows and workers: ptr[row] = global start;
	// hist[w][row] becomes worker w's write cursor base for that row.
	ptr := make([]int64, n+1)
	var running int64
	for row := 0; row < n; row++ {
		ptr[row] = running
		for w := 0; w < threads; w++ {
			c := hist[w][row]
			hist[w][row] = int32(running - ptr[row]) // offset within the row
			running += int64(c)
		}
	}
	ptr[n] = running
	// Pass 2: placement; each worker writes its pre-reserved slots.
	idx := make([]Node, len(edges))
	sched.ForStatic(len(edges), threads, func(worker, lo, hi int) {
		cursor := hist[worker]
		for _, e := range edges[lo:hi] {
			k, v := key(e)
			idx[ptr[k]+int64(cursor[k])] = v
			cursor[k]++
		}
	})
	sortRows(n, ptr, idx)
	return ptr, idx
}

func buildCSRSerial(n int, edges []Edge, transposed bool) ([]int64, []Node) {
	ptr := make([]int64, n+1)
	for _, e := range edges {
		k := e.Src
		if transposed {
			k = e.Dst
		}
		ptr[k+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	idx := make([]Node, len(edges))
	cursor := make([]int64, n)
	for _, e := range edges {
		k, v := e.Src, e.Dst
		if transposed {
			k, v = v, k
		}
		idx[ptr[k]+cursor[k]] = v
		cursor[k]++
	}
	sortRows(n, ptr, idx)
	return ptr, idx
}

// sortRows sorts each adjacency list for deterministic traversal and fast
// membership tests.
func sortRows(n int, ptr []int64, idx []Node) {
	sched.For(n, 0, 64, func(i int) {
		slices.Sort(idx[ptr[i]:ptr[i+1]])
	})
}

// FromCSR wraps existing CSR arrays (taking ownership) and derives the CSC.
// It validates the CSR first.
func FromCSR(outPtr []int64, outIdx []Node) (*Graph, error) {
	if err := validateHalf(outPtr, outIdx, "csr"); err != nil {
		return nil, err
	}
	g := &Graph{OutPtr: outPtr, OutIdx: outIdx}
	g.InPtr, g.InIdx = transposeHalf(outPtr, outIdx)
	return g, nil
}

// transposeHalf builds the transposed pointer/index arrays from one half.
func transposeHalf(ptr []int64, idx []Node) ([]int64, []Node) {
	n := len(ptr) - 1
	tptr := make([]int64, n+1)
	for _, v := range idx {
		tptr[v+1]++
	}
	for i := 0; i < n; i++ {
		tptr[i+1] += tptr[i]
	}
	tidx := make([]Node, len(idx))
	cursor := make([]int64, n)
	for u := 0; u < n; u++ {
		for _, v := range idx[ptr[u]:ptr[u+1]] {
			tidx[tptr[v]+cursor[v]] = Node(u)
			cursor[v]++
		}
	}
	// Rows of the transpose come out already sorted because we sweep u in
	// ascending order, so no per-row sort is needed.
	return tptr, tidx
}

// Transpose returns the reverse graph (every edge flipped). CSR and CSC
// swap roles, so this is O(1).
func (g *Graph) Transpose() *Graph {
	return &Graph{OutPtr: g.InPtr, OutIdx: g.InIdx, InPtr: g.OutPtr, InIdx: g.OutIdx}
}

// Edges materializes the edge list in CSR order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(Node(u)) {
			edges = append(edges, Edge{Node(u), v})
		}
	}
	return edges
}

// HasEdge reports whether u -> v exists, via binary search on u's sorted
// adjacency row.
func (g *Graph) HasEdge(u, v Node) bool {
	row := g.OutNeighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// Validate checks every structural invariant. It is used by tests and by
// the binary loader.
func (g *Graph) Validate() error {
	if err := validateHalf(g.OutPtr, g.OutIdx, "csr"); err != nil {
		return err
	}
	if err := validateHalf(g.InPtr, g.InIdx, "csc"); err != nil {
		return err
	}
	if len(g.OutPtr) != len(g.InPtr) {
		return fmt.Errorf("graph: csr has %d nodes, csc has %d", len(g.OutPtr)-1, len(g.InPtr)-1)
	}
	if len(g.OutIdx) != len(g.InIdx) {
		return fmt.Errorf("graph: csr has %d edges, csc has %d", len(g.OutIdx), len(g.InIdx))
	}
	// Cross-check: the degree sequences must be transposes of each other.
	n := g.NumNodes()
	inDeg := make([]int64, n)
	for _, v := range g.OutIdx {
		inDeg[v]++
	}
	for v := 0; v < n; v++ {
		if inDeg[v] != g.InDegree(Node(v)) {
			return fmt.Errorf("graph: node %d in-degree mismatch csr=%d csc=%d", v, inDeg[v], g.InDegree(Node(v)))
		}
	}
	return nil
}

func validateHalf(ptr []int64, idx []Node, kind string) error {
	if len(ptr) == 0 {
		return fmt.Errorf("graph: %s pointer array empty", kind)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("graph: %s ptr[0] = %d, want 0", kind, ptr[0])
	}
	n := len(ptr) - 1
	for i := 0; i < n; i++ {
		if ptr[i+1] < ptr[i] {
			return fmt.Errorf("graph: %s ptr decreasing at %d", kind, i)
		}
	}
	if ptr[n] != int64(len(idx)) {
		return fmt.Errorf("graph: %s ptr[n]=%d != len(idx)=%d", kind, ptr[n], len(idx))
	}
	if err := CheckRows(ptr, idx, n); err != nil {
		return fmt.Errorf("graph: %s %w", kind, err)
	}
	return nil
}

// CheckRows reports the first row of the CSR-shaped (ptr, idx) that holds an
// index >= bound or is not non-decreasing (multi-edges are allowed). ptr
// must already be a valid pointer array over idx.
func CheckRows(ptr []int64, idx []Node, bound int) error {
	for i := 0; i+1 < len(ptr); i++ {
		var prev Node
		for _, v := range idx[ptr[i]:ptr[i+1]] {
			if int(v) >= bound {
				return fmt.Errorf("index %d out of range %d", v, bound)
			}
			if v < prev {
				return fmt.Errorf("row %d not ascending (%d after %d)", i, v, prev)
			}
			prev = v
		}
	}
	return nil
}

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		OutPtr: make([]int64, len(g.OutPtr)),
		OutIdx: make([]Node, len(g.OutIdx)),
		InPtr:  make([]int64, len(g.InPtr)),
		InIdx:  make([]Node, len(g.InIdx)),
	}
	copy(c.OutPtr, g.OutPtr)
	copy(c.OutIdx, g.OutIdx)
	copy(c.InPtr, g.InPtr)
	copy(c.InIdx, g.InIdx)
	return c
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avg=%.2f}", g.NumNodes(), g.NumEdges(), g.AvgDegree())
}
