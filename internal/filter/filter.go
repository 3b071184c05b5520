// Package filter implements Mixen's graph filtering and relabeling stage
// (Section 4.1 of the paper) and the mixed CSR/CSC representation it feeds.
//
// Filtering assigns new node ids so that the memory layout becomes
//
//	[ hubs | non-hub regular | seed | sink | isolated ]
//
// with the relative order inside each category preserved (a stable
// permutation, as the paper requires to minimize disruption of the original
// structure). The regular×regular submatrix is then extracted as CSR for
// 2-D blocking, seed rows are extracted as CSR restricted to regular
// destinations (they feed the static bins once), and sink columns are
// extracted as CSC (they are pulled once in the Post-Phase). Every original
// edge lands in exactly one of the three structures except edges into seed
// or isolated nodes, which cannot exist by definition.
package filter

import (
	"fmt"
	"time"

	"mixen/internal/analyze"
	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
)

// Filtered is the relabeled graph in mixed CSR/CSC representation plus the
// metadata needed to schedule the three processing phases.
type Filtered struct {
	G *graph.Graph // the original graph (unchanged)

	// NewID maps original id -> filtered id; OldID is the inverse.
	NewID []graph.Node
	OldID []graph.Node

	// Category boundaries in the new id space:
	// hubs occupy [0, NumHub), regular [0, NumRegular),
	// seeds [NumRegular, NumRegular+NumSeed), sinks the next NumSink ids,
	// isolated the rest.
	NumHub      int
	NumRegular  int
	NumSeed     int
	NumSink     int
	NumIsolated int

	// RegPtr/RegIdx: CSR of the regular×regular submatrix in new ids.
	// Row u in [0, NumRegular) lists its regular out-neighbours (< NumRegular).
	RegPtr []int64
	RegIdx []graph.Node

	// SeedPtr/SeedIdx: CSR rows of seed nodes restricted to regular
	// destinations. Row i corresponds to new id NumRegular+i.
	SeedPtr []int64
	SeedIdx []graph.Node

	// SinkPtr/SinkIdx: CSC columns of sink nodes. Column i corresponds to
	// new id NumRegular+NumSeed+i and lists in-neighbours (new ids, which
	// are regular or seed).
	SinkPtr []int64
	SinkIdx []graph.Node

	// Class keeps the per-original-node classification used during the scan.
	Class []analyze.NodeClass

	// A form loaded from a .mixp file (internal/partio) has G, RegPtr and
	// RegIdx nil — serving never reads them (the partition already encodes
	// the regular submatrix) — and its arrays live in a read-only mapping.
}

// N returns the total node count.
func (f *Filtered) N() int { return len(f.NewID) }

// RegularEdges returns m̃, the edge count of the regular submatrix.
func (f *Filtered) RegularEdges() int64 { return int64(len(f.RegIdx)) }

// Alpha returns r/n (the paper's α).
func (f *Filtered) Alpha() float64 {
	if f.N() == 0 {
		return 0
	}
	return float64(f.NumRegular) / float64(f.N())
}

// Beta returns m̃/m (the paper's β).
func (f *Filtered) Beta() float64 {
	m := f.G.NumEdges()
	if m == 0 {
		return 0
	}
	return float64(f.RegularEdges()) / float64(m)
}

// SeedBound returns the first seed id (== NumRegular).
func (f *Filtered) SeedBound() int { return f.NumRegular }

// SinkBound returns the first sink id.
func (f *Filtered) SinkBound() int { return f.NumRegular + f.NumSeed }

// IsolatedBound returns the first isolated id.
func (f *Filtered) IsolatedBound() int { return f.NumRegular + f.NumSeed + f.NumSink }

// RegularOrder selects how nodes are arranged inside the regular range.
type RegularOrder uint8

const (
	// OrderHubFirst is the paper's step-2 policy: hubs (in-degree above
	// average) first, original relative order preserved inside the hub and
	// non-hub groups.
	OrderHubFirst RegularOrder = iota
	// OrderOriginal keeps the original relative order (classification
	// only) — the ablation of the locality reordering.
	OrderOriginal
)

// Options tunes the filtering pass.
type Options struct {
	// Order is the regular-range arrangement policy.
	Order RegularOrder
	// Collector receives filtering telemetry: per-class node counts
	// (filter.hubs, filter.regular, ...) and pass timings
	// (filter.classify_ns, filter.relabel_ns, filter.extract_ns and, inside
	// the extraction, filter.count_ns and filter.fill_ns). Nil means the
	// zero-cost no-op collector.
	Collector obs.Collector
}

// Filter runs the 2-step filtering of Section 4.1: classification plus hub
// relocation, merged into one pass over the degree arrays, followed by the
// extraction of the mixed CSR/CSC representation.
func Filter(g *graph.Graph) *Filtered {
	return FilterWithOptions(g, Options{Order: OrderHubFirst})
}

// classHub stands in Class for "regular and a hub" while FilterWithOptions
// runs, so one byte per node answers both the relabelling's and the row
// counts' question; hubs are set back to analyze.Regular before it returns.
const classHub = analyze.Isolated + 1

// FilterWithOptions is Filter with explicit options.
func FilterWithOptions(g *graph.Graph, opts Options) *Filtered {
	col := obs.Default(opts.Collector)
	n := g.NumNodes()
	f := &Filtered{
		G:     g,
		NewID: make([]graph.Node, n),
		OldID: make([]graph.Node, n),
		Class: make([]analyze.NodeClass, n),
	}
	threshold := analyze.HubThreshold(g)
	tClassify := time.Now()

	// Pass 1 (parallel): classify and count the five categories.
	partial := make([][classHub + 1]int, sched.DefaultThreads())
	sched.ForStatic(n, 0, func(worker, lo, hi int) {
		var counts [classHub + 1]int
		for v := lo; v < hi; v++ {
			in := g.InDegree(graph.Node(v))
			cl := analyze.ClassOf(in, g.OutDegree(graph.Node(v)))
			if cl == analyze.Regular && opts.Order == OrderHubFirst && float64(in) > threshold {
				cl = classHub
			}
			f.Class[v] = cl
			counts[cl]++
		}
		partial[worker] = counts
	})
	var counts [classHub + 1]int
	for _, p := range partial {
		for i := range counts {
			counts[i] += p[i]
		}
	}
	f.NumHub = counts[classHub]
	f.NumRegular = counts[classHub] + counts[analyze.Regular]
	f.NumSeed = counts[analyze.Seed]
	f.NumSink = counts[analyze.Sink]
	f.NumIsolated = counts[analyze.Isolated]
	col.Histogram("filter.classify_ns").ObserveDuration(time.Since(tClassify))
	col.Gauge("filter.hubs").Set(int64(f.NumHub))
	col.Gauge("filter.regular").Set(int64(f.NumRegular))
	col.Gauge("filter.seeds").Set(int64(f.NumSeed))
	col.Gauge("filter.sinks").Set(int64(f.NumSink))
	col.Gauge("filter.isolated").Set(int64(f.NumIsolated))

	// Pass 2 (sequential scan for stability): assign new ids in original
	// order within each category.
	tRelabel := time.Now()
	var offsets [classHub + 1]int
	offsets[classHub] = 0
	offsets[analyze.Regular] = f.NumHub
	offsets[analyze.Seed] = f.SeedBound()
	offsets[analyze.Sink] = f.SinkBound()
	offsets[analyze.Isolated] = f.IsolatedBound()
	for v := 0; v < n; v++ {
		id := graph.Node(offsets[f.Class[v]])
		offsets[f.Class[v]]++
		f.NewID[v] = id
		f.OldID[id] = graph.Node(v)
	}
	col.Histogram("filter.relabel_ns").ObserveDuration(time.Since(tRelabel))

	// Pass 3: the mixed representation. Regular and seed rows keep their
	// regular out-neighbours, sink columns all their in-neighbours.
	tExtract := time.Now()
	x := extractor{f: f}
	f.RegPtr, f.RegIdx = x.extract(0, f.NumRegular, g.OutPtr, g.OutIdx)
	f.SeedPtr, f.SeedIdx = x.extract(f.SeedBound(), f.NumSeed, g.OutPtr, g.OutIdx)
	f.SinkPtr, f.SinkIdx = x.extract(f.SinkBound(), f.NumSink, g.InPtr, g.InIdx)
	for _, old := range f.OldID[:f.NumHub] {
		f.Class[old] = analyze.Regular
	}
	col.Histogram("filter.count_ns").ObserveDuration(x.count)
	col.Histogram("filter.fill_ns").ObserveDuration(x.fill)
	col.Histogram("filter.extract_ns").ObserveDuration(time.Since(tExtract))
	col.Counter("filter.runs").Inc()
	col.Counter("filter.nodes").Add(int64(n))
	col.Counter("filter.edges_regular").Add(f.RegularEdges())
	return f
}

// extractor builds the three structures of the mixed representation, all
// the same way: row i of a structure lists the new ids of the regular and
// seed neighbours of node base+i, ascending. (An out-neighbour is never a
// seed and an in-neighbour never a sink, so that one rule yields regular
// destinations for the regular and seed rows and every source for the sink
// columns.)
//
// No row is sorted. A graph row ascends in original ids and the relabelling
// is monotone inside each of the hub, non-hub and seed classes, whose id
// ranges follow one another — so the relabelled row is a stable three-way
// partition of the original one. The count pass sizes the three parts from
// one class byte per neighbour; the fill pass writes each neighbour's new id
// at its part's cursor, telling the parts apart by the id it has just read.
type extractor struct {
	f           *Filtered
	count, fill time.Duration // summed over the structures built
}

func (x *extractor) extract(base, rows int, adjPtr []int64, adjIdx []graph.Node) ([]int64, []graph.Node) {
	f := x.f
	olds, class, newID := f.OldID[base:base+rows], f.Class, f.NewID
	t0 := time.Now()
	ptr := make([]int64, rows+1)
	cuts := make([][2]int64, rows) // per row: where the non-hubs, then the seeds, start
	sched.For(rows, 0, 64, func(i int) {
		u := olds[i]
		var hubs, regular, seeds int64
		for _, v := range adjIdx[adjPtr[u]:adjPtr[u+1]] {
			// Three independent tests compile to conditional moves; a
			// switch would mispredict on every other neighbour.
			cl := class[v]
			if cl == classHub {
				hubs++
			}
			if cl == analyze.Regular {
				regular++
			}
			if cl == analyze.Seed {
				seeds++
			}
		}
		regular += hubs
		cuts[i] = [2]int64{hubs, regular}
		ptr[i+1] = regular + seeds
	})
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	t1 := time.Now()
	idx := make([]graph.Node, ptr[rows])
	hubEnd, regEnd, seedEnd := graph.Node(f.NumHub), graph.Node(f.NumRegular), graph.Node(f.SinkBound())
	sched.For(rows, 0, 64, func(i int) {
		u := olds[i]
		row := idx[ptr[i]:ptr[i+1]]
		hub, reg, seed := int64(0), cuts[i][0], cuts[i][1]
		for _, v := range adjIdx[adjPtr[u]:adjPtr[u+1]] {
			switch id := newID[v]; {
			case id < hubEnd:
				row[hub] = id
				hub++
			case id < regEnd:
				row[reg] = id
				reg++
			case id < seedEnd:
				row[seed] = id
				seed++
			}
		}
	})
	x.count += t1.Sub(t0)
	x.fill += time.Since(t1)
	return ptr, idx
}

// ToOriginal scatters a value vector indexed by new ids back to original
// ids. len(newVals) and len(out) must equal N().
func (f *Filtered) ToOriginal(newVals, out []float64) error {
	if len(newVals) != f.N() || len(out) != f.N() {
		return fmt.Errorf("filter: length mismatch new=%d out=%d n=%d", len(newVals), len(out), f.N())
	}
	sched.For(f.N(), 0, 1024, func(old int) {
		out[old] = newVals[f.NewID[old]]
	})
	return nil
}

// ToFiltered gathers a value vector indexed by original ids into new-id
// order. len(origVals) and len(out) must equal N().
func (f *Filtered) ToFiltered(origVals, out []float64) error {
	if len(origVals) != f.N() || len(out) != f.N() {
		return fmt.Errorf("filter: length mismatch orig=%d out=%d n=%d", len(origVals), len(out), f.N())
	}
	sched.For(f.N(), 0, 1024, func(newV int) {
		out[newV] = origVals[f.OldID[newV]]
	})
	return nil
}

// Validate checks the structural invariants of the filtered form. Intended
// for tests and debugging, not hot paths.
func (f *Filtered) Validate() error {
	n := f.N()
	if f.NumRegular+f.NumSeed+f.NumSink+f.NumIsolated != n {
		return fmt.Errorf("filter: category counts do not sum to n")
	}
	if f.NumHub > f.NumRegular {
		return fmt.Errorf("filter: more hubs (%d) than regular nodes (%d)", f.NumHub, f.NumRegular)
	}
	// Permutation must be a bijection.
	seen := make([]bool, n)
	for old, newID := range f.NewID {
		if int(newID) >= n || seen[newID] {
			return fmt.Errorf("filter: NewID not a permutation at %d", old)
		}
		seen[newID] = true
		if f.OldID[newID] != graph.Node(old) {
			return fmt.Errorf("filter: OldID inverse broken at %d", old)
		}
	}
	// Edge conservation: every original edge appears exactly once across
	// the three extracted structures. A form loaded from a .mixp file
	// carries neither the original graph nor the regular CSR, so only the
	// full form can be cross-checked.
	if f.G != nil {
		stored := int64(len(f.RegIdx)) + int64(len(f.SeedIdx)) + int64(len(f.SinkIdx))
		if stored != f.G.NumEdges() {
			return fmt.Errorf("filter: stored %d edges, original has %d", stored, f.G.NumEdges())
		}
	}
	// Indices stay inside their range and every row ascends (multi-edges
	// allowed): block cuts regular rows into per-column runs, and the
	// extraction produces sorted rows without a final check.
	for _, part := range []struct {
		name  string
		ptr   []int64
		idx   []graph.Node
		bound int
	}{
		{"regular CSR", f.RegPtr, f.RegIdx, f.NumRegular},
		{"seed CSR", f.SeedPtr, f.SeedIdx, f.NumRegular},
		{"sink CSC", f.SinkPtr, f.SinkIdx, f.SinkBound()},
	} {
		if err := graph.CheckRows(part.ptr, part.idx, part.bound); err != nil {
			return fmt.Errorf("filter: %s %w", part.name, err)
		}
	}
	return nil
}
