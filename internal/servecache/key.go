// Package servecache is the serving-layer result cache behind
// cmd/mixenserve: an LRU keyed on (algorithm, params, source set, nodes
// list, graph epoch) with byte-size accounting, TTL expiry, epoch
// invalidation and singleflight collapsing of concurrent identical
// computations.
//
// The cache stores opaque values (the server caches per-source shaped
// answers: the top-K list and the values at the requested nodes); all
// policy — what is cacheable, how big a value is, which epoch is current
// — belongs to the caller. Keys are produced by Params.Key, whose
// canonicalization (sorted+deduplicated sources, bit-exact float
// encoding, fixed field order) guarantees that two requests asking for
// the same computation collide on one entry no matter how the query
// string spelled them.
package servecache

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Params identifies one cacheable computation. The zero value of unused
// fields participates in the key, so callers must populate the same
// fields for the same algorithm every time (the server builds Params in
// exactly one place per algorithm).
type Params struct {
	// Algo is the algorithm name ("pagerank", "ppr", "bfs", "indegree").
	Algo string
	// Mode distinguishes result flavours of one computation; the server
	// caches only "exact" results.
	Mode string
	// Damping is the PageRank/PPR damping factor; 0 for algorithms
	// without one.
	Damping float64
	// Tol is the convergence tolerance the result was computed at.
	Tol float64
	// Iters is the iteration budget.
	Iters int
	// Sources is the personalization/root set. Order and duplicates are
	// canonicalized away by Key; nil for global algorithms.
	Sources []uint32
	// Nodes lists the nodes whose values the answer carries. Unlike
	// Sources it is kept in request order, duplicates included, because
	// the answer lists the values in that order; nil for none.
	Nodes []uint32
	// Epoch is the graph epoch the result belongs to (the .mixp build
	// epoch for mapped partitions, 0 for graphs built in-process).
	// Results from different epochs never share an entry.
	Epoch int64
}

// Key renders the canonical cache key. Properties (pinned by
// FuzzCacheKey):
//
//   - deterministic: equal Params yield equal keys;
//   - source-set canonical: permuting or duplicating Sources does not
//     change the key;
//   - injective on floats: Damping/Tol are encoded from their IEEE-754
//     bits, so distinct float values (including negative zero vs zero)
//     yield distinct keys and no precision is lost to formatting;
//   - order-preserving on nodes: Nodes lists that differ in order or
//     multiplicity yield distinct keys;
//   - epoch-separating: different Epoch values never collide.
func (p Params) Key() string {
	var b strings.Builder
	b.Grow(64 + 9*(len(p.Sources)+len(p.Nodes)))
	b.WriteString("v1|")
	b.WriteString(p.Algo)
	b.WriteByte('|')
	b.WriteString(p.Mode)
	b.WriteString("|e=")
	b.WriteString(strconv.FormatInt(p.Epoch, 10))
	b.WriteString("|d=")
	writeFloatBits(&b, p.Damping)
	b.WriteString("|t=")
	writeFloatBits(&b, p.Tol)
	b.WriteString("|i=")
	b.WriteString(strconv.Itoa(p.Iters))
	b.WriteString("|s=")
	writeIDs(&b, canonicalSources(p.Sources))
	b.WriteString("|n=")
	writeIDs(&b, p.Nodes)
	return b.String()
}

// writeIDs writes ids comma-separated.
func writeIDs(b *strings.Builder, ids []uint32) {
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
}

// writeFloatBits encodes f bit-exactly as 16 hex digits. Formatting via
// bits (rather than %g) keeps the key canonical for every distinct
// float64, NaN payloads included.
func writeFloatBits(b *strings.Builder, f float64) {
	var buf [16]byte
	bits := math.Float64bits(f)
	for i := 15; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[bits&0xf]
		bits >>= 4
	}
	b.Write(buf[:])
}

// canonicalSources returns srcs sorted ascending with duplicates
// removed, without mutating the input.
func canonicalSources(srcs []uint32) []uint32 {
	if len(srcs) == 0 {
		return nil
	}
	out := make([]uint32, len(srcs))
	copy(out, srcs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
