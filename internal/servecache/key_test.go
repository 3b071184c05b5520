package servecache

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestKeyCanonicalSources(t *testing.T) {
	base := Params{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{3, 1, 2}, Epoch: 7}
	perm := base
	perm.Sources = []uint32{2, 3, 1}
	dup := base
	dup.Sources = []uint32{1, 1, 2, 3, 3, 3}
	if base.Key() != perm.Key() {
		t.Errorf("permuted sources changed the key:\n%s\n%s", base.Key(), perm.Key())
	}
	if base.Key() != dup.Key() {
		t.Errorf("duplicated sources changed the key:\n%s\n%s", base.Key(), dup.Key())
	}
	other := base
	other.Sources = []uint32{1, 2, 4}
	if base.Key() == other.Key() {
		t.Errorf("distinct source sets collided: %s", base.Key())
	}
}

func TestKeyDoesNotMutateSources(t *testing.T) {
	srcs := []uint32{9, 2, 5, 2}
	p := Params{Algo: "ppr", Sources: srcs}
	_ = p.Key()
	want := []uint32{9, 2, 5, 2}
	for i := range srcs {
		if srcs[i] != want[i] {
			t.Fatalf("Key mutated Sources: got %v want %v", srcs, want)
		}
	}
}

func TestKeySeparatesFields(t *testing.T) {
	base := Params{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{1}, Epoch: 1}
	mutations := []Params{
		{Algo: "pagerank", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{1}, Epoch: 1},
		{Algo: "ppr", Mode: "warm", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{1}, Epoch: 1},
		{Algo: "ppr", Mode: "exact", Damping: 0.9, Tol: 1e-8, Iters: 50, Sources: []uint32{1}, Epoch: 1},
		{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-6, Iters: 50, Sources: []uint32{1}, Epoch: 1},
		{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 51, Sources: []uint32{1}, Epoch: 1},
		{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{2}, Epoch: 1},
		{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{1}, Epoch: 2},
		{Algo: "ppr", Mode: "exact", Damping: 0.85, Tol: 1e-8, Iters: 50, Sources: []uint32{1}, Nodes: []uint32{1}, Epoch: 1},
	}
	for i, m := range mutations {
		if m.Key() == base.Key() {
			t.Errorf("mutation %d collided with base key %s", i, base.Key())
		}
	}
}

// TestKeyNodesInRequestOrder: the answer lists node values in request
// order, so unlike Sources the Nodes list is not canonicalized — order and
// multiplicity separate keys — while nil and empty mean the same.
func TestKeyNodesInRequestOrder(t *testing.T) {
	base := Params{Algo: "ppr", Mode: "exact", Sources: []uint32{1}, Nodes: []uint32{3, 1, 2}}
	for _, nodes := range [][]uint32{{1, 2, 3}, {3, 1, 2, 2}, {3, 1}, nil} {
		p := base
		p.Nodes = nodes
		if p.Key() == base.Key() {
			t.Errorf("nodes %v collided with %v: %s", nodes, base.Nodes, base.Key())
		}
	}
	empty := base
	empty.Nodes = []uint32{}
	none := base
	none.Nodes = nil
	if empty.Key() != none.Key() {
		t.Errorf("empty and nil node lists keyed apart:\n%s\n%s", empty.Key(), none.Key())
	}
	moved := Params{Algo: "ppr", Mode: "exact", Sources: []uint32{1, 3}}
	if moved.Key() == (Params{Algo: "ppr", Mode: "exact", Sources: []uint32{1}, Nodes: []uint32{3}}).Key() {
		t.Error("an id moved from Nodes to Sources kept the key")
	}
}

func TestKeyFloatBitExact(t *testing.T) {
	// 0.1+0.2 != 0.3 in float64 runtime arithmetic (Go folds untyped
	// constants exactly, so force variables): the key must see them as
	// different values.
	x, y := 0.1, 0.2
	a := Params{Algo: "ppr", Tol: x + y}
	b := Params{Algo: "ppr", Tol: 0.3}
	if a.Key() == b.Key() {
		t.Error("bit-distinct tolerances collided")
	}
	// Negative zero and zero have different bits and different keys —
	// canonicalizing them is the query parser's job, not the cache's.
	nz := Params{Algo: "ppr", Damping: math.Copysign(0, -1)}
	z := Params{Algo: "ppr", Damping: 0}
	if nz.Key() == z.Key() {
		t.Error("-0 and +0 collided")
	}
}

// FuzzCacheKey pins the canonicalization contract: keys are
// deterministic, source order/duplication never matters, and epoch or
// iteration changes always produce a different key.
func FuzzCacheKey(f *testing.F) {
	f.Add("ppr", "exact", 0.85, 1e-8, 50, int64(7), []byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add("pagerank", "", 0.0, 0.0, 0, int64(0), []byte{})
	f.Add("bfs", "warm", math.Inf(1), math.NaN(), -3, int64(-1), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, algo, mode string, damping, tol float64, iters int, epoch int64, srcBytes []byte) {
		srcs := make([]uint32, 0, len(srcBytes)/4)
		for i := 0; i+4 <= len(srcBytes) && len(srcs) < 64; i += 4 {
			srcs = append(srcs, binary.LittleEndian.Uint32(srcBytes[i:]))
		}
		p := Params{Algo: algo, Mode: mode, Damping: damping, Tol: tol, Iters: iters, Sources: srcs, Epoch: epoch}
		key := p.Key()
		if key != p.Key() {
			t.Fatal("key not deterministic")
		}
		if !strings.HasPrefix(key, "v1|") {
			t.Fatalf("key missing version prefix: %q", key)
		}

		// Reversing and duplicating the source set must not change the key.
		rev := make([]uint32, 0, 2*len(srcs))
		for i := len(srcs) - 1; i >= 0; i-- {
			rev = append(rev, srcs[i], srcs[i])
		}
		pr := p
		pr.Sources = rev
		if pr.Key() != key {
			t.Fatalf("source permutation+dup changed key:\n%q\n%q", key, pr.Key())
		}

		// Epoch and iteration budget must always separate.
		pe := p
		pe.Epoch = epoch + 1
		if pe.Key() == key {
			t.Fatal("epoch change did not change key")
		}
		pi := p
		pi.Iters = iters + 1
		if pi.Key() == key {
			t.Fatal("iters change did not change key")
		}

		// The sources as a nodes list always separate, and so does each
		// node appended to it.
		pn := p
		for len(pn.Nodes) < 3 {
			pn.Nodes = append(pn.Nodes, uint32(len(pn.Nodes)))
			if pn.Key() == key {
				t.Fatalf("nodes %v did not change key %q", pn.Nodes, key)
			}
		}
	})
}
