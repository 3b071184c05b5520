// Package tune predicts the SCGA block side from the memmodel cache
// hierarchy: for each candidate side it partitions a sampled corner of the
// regular submatrix, replays the dense Main-Phase address stream —
// Scatter, Cache, Gather — through the simulated hierarchy, and ranks the
// candidates by modelled DRAM traffic. It is the offline counterpart of
// the engine's measured auto-tuner (core.Config.AutoTune): the measured
// path times real iterations on the current machine, the predicted path
// explains the choice against the paper's cache model without running the
// engine at all.
package tune

import (
	"fmt"

	"mixen/internal/block"
	"mixen/internal/core"
	"mixen/internal/filter"
	"mixen/internal/graph"
	"mixen/internal/memmodel"
)

// Options configures a prediction sweep.
type Options struct {
	// Hierarchy is the simulated cache the replay drives. Nil picks
	// memmodel.ScaledHierarchy(64), the bench convention for graphs whose
	// working set would vanish into the paper machine's 27.5 MB LLC. The
	// hierarchy is Reset before every candidate so each side starts cold.
	Hierarchy *memmodel.Hierarchy
	// SampleNodes caps the replayed corner of the submatrix: the leading
	// [0, SampleNodes) × [0, SampleNodes) principal block. After the
	// hub-first (or skew-aware) relabeling the prefix holds the hottest
	// rows, so the sample covers the traffic the side choice actually
	// moves. The same corner is replayed for every candidate, keeping the
	// ranking comparable. 0 means DefaultSampleNodes; negative disables
	// sampling (full submatrix).
	SampleNodes int
	// Iters is the number of Main-Phase iterations replayed with
	// persistent cache state (steady-state behaviour). 0 means 2.
	Iters int
	// Threads seeds the DefaultSide candidate (0 = all cores), matching
	// core.CandidateSides.
	Threads int
}

// DefaultSampleNodes bounds the replayed principal block at 64k nodes —
// two candidate ladders above the largest side, so even the coarsest
// candidate still produces a multi-block grid on a saturated sample.
const DefaultSampleNodes = 1 << 16

func (o Options) withDefaults() (Options, error) {
	if o.Hierarchy == nil {
		h, err := memmodel.ScaledHierarchy(64)
		if err != nil {
			return o, err
		}
		o.Hierarchy = h
	}
	if o.SampleNodes == 0 {
		o.SampleNodes = DefaultSampleNodes
	}
	if o.Iters <= 0 {
		o.Iters = 2
	}
	return o, nil
}

// Candidate is one row of the prediction table: a candidate side with the
// modelled memory behaviour of the sampled replay.
type Candidate struct {
	Side   int
	Blocks int // block-grid dimension of the sampled partition
	// TrafficBytes is the modelled DRAM traffic of the replayed
	// iterations (the ranking key, lower is better).
	TrafficBytes int64
	// LLCMissRatio is the last-level miss ratio over the replay.
	LLCMissRatio float64
	Chosen       bool
}

// SideCandidates returns the ladder a prediction (or measurement) sweep
// ranks for a regular range of size r — identical to the measured tuner's.
func SideCandidates(r, threads int) []int { return core.CandidateSides(r, threads) }

// PredictSide ranks every candidate side for the regular submatrix
// (ptr/idx/r in filtered form) by simulated DRAM traffic and returns the
// table plus the winning side. Deterministic: same submatrix, same
// options, same answer.
func PredictSide(ptr []int64, idx []graph.Node, r int, opts Options) ([]Candidate, int, error) {
	if r <= 0 {
		return nil, 0, fmt.Errorf("tune: empty regular range")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	sPtr, sIdx, sr := sampleCorner(ptr, idx, r, opts.SampleNodes)
	sides := SideCandidates(r, opts.Threads)
	cands := make([]Candidate, 0, len(sides))
	bestIdx := -1
	for _, side := range sides {
		p, err := block.NewPartition(sPtr, sIdx, sr, block.Config{Side: side, MaxLoadFactor: 2})
		if err != nil {
			return nil, 0, fmt.Errorf("tune: side %d: %w", side, err)
		}
		h := opts.Hierarchy
		h.Reset()
		replaySCGA(p, h, opts.Iters)
		h.Flush()
		stats := h.Stats()
		c := Candidate{
			Side:         side,
			Blocks:       p.B,
			TrafficBytes: h.MemTrafficBytes(),
			LLCMissRatio: stats[len(stats)-1].MissRatio(),
		}
		cands = append(cands, c)
		if bestIdx < 0 || c.TrafficBytes < cands[bestIdx].TrafficBytes {
			bestIdx = len(cands) - 1
		}
	}
	cands[bestIdx].Chosen = true
	return cands, cands[bestIdx].Side, nil
}

// PredictGraphSide is PredictSide over a whole graph: it runs the engine's
// preprocessing (filtering plus the optional Config.Reorder permutation —
// the prediction sees the same layout the engine would) and ranks the
// candidates for the resulting regular submatrix.
func PredictGraphSide(g *graph.Graph, cfg core.Config, opts Options) ([]Candidate, int, error) {
	f, err := core.PrepareFiltered(g, cfg)
	if err != nil {
		return nil, 0, err
	}
	if opts.Threads == 0 {
		opts.Threads = cfg.Threads
	}
	return PredictSide(f.RegPtr, f.RegIdx, f.NumRegular, opts)
}

// PredictFiltered ranks candidates for an already-filtered form.
func PredictFiltered(f *filter.Filtered, opts Options) ([]Candidate, int, error) {
	return PredictSide(f.RegPtr, f.RegIdx, f.NumRegular, opts)
}

// sampleCorner restricts the submatrix CSR to its leading principal block
// [0, capN) × [0, capN): rows past the cap are dropped, and surviving rows keep
// only destinations below it. capN <= 0 or capN >= r returns the input
// unchanged.
func sampleCorner(ptr []int64, idx []graph.Node, r, capN int) ([]int64, []graph.Node, int) {
	if capN <= 0 || capN >= r {
		return ptr, idx, r
	}
	sPtr := make([]int64, capN+1)
	var sIdx []graph.Node
	for u := 0; u < capN; u++ {
		for _, v := range idx[ptr[u]:ptr[u+1]] {
			if int(v) < capN {
				sIdx = append(sIdx, v)
			}
		}
		sPtr[u+1] = int64(len(sIdx))
	}
	return sPtr, sIdx, capN
}

// Synthetic-address element sizes, mirroring memmodel's trace convention.
// (No CSR-pointer accesses here: the dense SCGA stream walks sub-blocks,
// not rows.)
const (
	szF = 8 // float64 property
	szU = 4 // uint32 node id
)

// arena assigns disjoint, page-aligned synthetic address ranges so
// cache-set conflicts behave as they would for separately allocated
// slices (same scheme as memmodel's internal arena).
type arena struct{ next uint64 }

func newArena() *arena { return &arena{next: 1 << 20} }

func (a *arena) alloc(bytes int64) uint64 {
	const align = 4096
	base := a.next
	a.next += (uint64(bytes) + align - 1) / align * align
	a.next += align // guard page between arrays
	return base
}

// replaySCGA drives the dense width-1 Main-Phase address stream of p —
// Scatter (read srcs + x, write vals), Cache (read sta, write y), Gather
// (read vals + the flagged dst stream, read-modify-write y) — through h for
// iters iterations with persistent cache state and x/y role swap, exactly
// the reference stream the engine's dense path issues. Addresses only; no
// values are computed, which is what lets the prediction run without a
// program or workspace.
func replaySCGA(p *block.Partition, h *memmodel.Hierarchy, iters int) {
	a := newArena()
	nb := len(p.Blocks)
	srcsBase := make([]uint64, nb)
	dstBase := make([]uint64, nb)
	valsBase := make([]uint64, nb)
	for i, sb := range p.Blocks {
		srcsBase[i] = a.alloc(int64(len(sb.Srcs)) * szU)
		dstBase[i] = a.alloc(int64(len(sb.Dst)) * szU)
		valsBase[i] = a.alloc(int64(len(sb.Srcs)) * szF)
	}
	baseA := a.alloc(int64(p.R) * szF)
	baseB := a.alloc(int64(p.R) * szF)
	baseSta := a.alloc(int64(p.R) * szF)
	index := make(map[*block.SubBlock]int, nb)
	for i, sb := range p.Blocks {
		index[sb] = i
	}
	baseX, baseY := baseA, baseB
	for it := 0; it < iters; it++ {
		for i, sb := range p.Blocks {
			for k, s := range sb.Srcs {
				h.Read(srcsBase[i]+uint64(k)*szU, szU)
				h.Read(baseX+uint64(s)*szF, szF)
				h.Write(valsBase[i]+uint64(k)*szF, szF)
			}
		}
		for v := 0; v < p.R; v++ {
			h.Read(baseSta+uint64(v)*szF, szF)
			h.Write(baseY+uint64(v)*szF, szF)
		}
		for j := 0; j < p.B; j++ {
			for _, sb := range p.Cols[j] {
				i := index[sb]
				k := -1
				for e, d := range sb.Dst {
					h.Read(dstBase[i]+uint64(e)*szU, szU)
					if d&block.RunStart != 0 {
						k++
						h.Read(valsBase[i]+uint64(k)*szF, szF)
					}
					y := baseY + uint64(d&block.DstMask)*szF
					h.Read(y, szF)
					h.Write(y, szF)
				}
			}
		}
		baseX, baseY = baseY, baseX
	}
}
