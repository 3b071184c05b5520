package filter

import (
	"fmt"
	"slices"

	"mixen/internal/graph"
	"mixen/internal/sched"
)

// PermuteRegular relabels the regular range [0, NumRegular) under perm
// (new regular id for each current regular id) and rebuilds every
// structure that references regular ids: the NewID/OldID bijection, the
// regular×regular CSR, seed-row destinations and sink-column sources.
// Seed, sink and isolated ids are untouched, so the class layout
// [regular | seed | sink | isolated] — and with it the SCGA phase
// schedule — survives; this is how a lightweight reordering composes with
// the paper's connectivity-aware relabeling instead of replacing it.
//
// After a permutation NumHub remains correct as a COUNT, but hubs no
// longer necessarily occupy the positional prefix [0, NumHub): the
// permutation decides the layout inside the regular range (that is its
// point). Rows and columns are re-sorted, so Validate passes afterwards.
//
// PermuteRegular mutates f in place and must run before the Filtered form
// is shared (core.New calls it between filtering and partitioning, while
// the engine is still private to the constructor).
func (f *Filtered) PermuteRegular(perm []graph.Node) error {
	if f.Frozen {
		return fmt.Errorf("filter: cannot permute a frozen (mmap-backed) filtered form")
	}
	r := f.NumRegular
	if len(perm) != r {
		return fmt.Errorf("filter: permutation has %d entries, regular range has %d", len(perm), r)
	}
	inv := make([]graph.Node, r)
	seen := make([]bool, r)
	for old, p := range perm {
		if int(p) >= r || seen[p] {
			return fmt.Errorf("filter: not a permutation of the regular range at %d", old)
		}
		seen[p] = true
		inv[p] = graph.Node(old)
	}

	// Remap the global bijection: the original node currently labeled q
	// becomes perm[q].
	olds := make([]graph.Node, r)
	copy(olds, f.OldID[:r])
	for q := 0; q < r; q++ {
		orig := olds[q]
		f.OldID[perm[q]] = orig
		f.NewID[orig] = perm[q]
	}

	// Rebuild the regular CSR: new row p is old row inv[p] with its
	// destinations mapped through perm and re-sorted (a permutation is not
	// monotone, and block.NewPartition and Validate rely on sorted rows).
	newPtr := make([]int64, r+1)
	for p := 0; p < r; p++ {
		q := inv[p]
		newPtr[p+1] = f.RegPtr[q+1] - f.RegPtr[q]
	}
	for p := 0; p < r; p++ {
		newPtr[p+1] += newPtr[p]
	}
	newIdx := make([]graph.Node, len(f.RegIdx))
	sched.For(r, 0, 64, func(p int) {
		q := inv[p]
		pos := newPtr[p]
		for _, v := range f.RegIdx[f.RegPtr[q]:f.RegPtr[q+1]] {
			newIdx[pos] = perm[v]
			pos++
		}
		slices.Sort(newIdx[newPtr[p]:pos])
	})
	f.RegPtr, f.RegIdx = newPtr, newIdx

	// Seed rows point only at regular destinations: map in place, re-sort.
	sched.For(f.NumSeed, 0, 64, func(i int) {
		row := f.SeedIdx[f.SeedPtr[i]:f.SeedPtr[i+1]]
		for k, v := range row {
			row[k] = perm[v]
		}
		slices.Sort(row)
	})

	// Sink columns hold regular sources, then seed sources: only the
	// regular prefix is mapped and re-sorted.
	sched.For(f.NumSink, 0, 64, func(i int) {
		col := f.SinkIdx[f.SinkPtr[i]:f.SinkPtr[i+1]]
		k := 0
		for k < len(col) && int(col[k]) < r {
			col[k] = perm[col[k]]
			k++
		}
		slices.Sort(col[:k])
	})
	return nil
}

// RegularInDegrees returns the in-degree of every regular node measured
// inside the regular submatrix — the degree signal a skew-aware reordering
// of the submatrix keys on (reorder.PermutationFromDegrees).
func (f *Filtered) RegularInDegrees() []int64 {
	deg := make([]int64, f.NumRegular)
	for _, v := range f.RegIdx {
		deg[v]++
	}
	return deg
}
