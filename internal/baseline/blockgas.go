package baseline

import (
	"fmt"

	"mixen/internal/block"
	"mixen/internal/graph"
	"mixen/internal/obs"
	"mixen/internal/sched"
	"mixen/internal/vprog"
)

// BlockGAS is the GPOP-like engine: the whole n×n adjacency matrix is cut
// into cache-sized 2-D blocks with per-block dynamic bins and processed
// under a Scatter-Gather-Apply schedule (§2.2 Algorithm 2). Unlike Mixen it
// performs no connectivity filtering — seed rows are re-scattered and sink
// columns re-gathered every iteration — and has no static-bin Cache step,
// which is exactly the redundancy §3 quantifies.
type BlockGAS struct {
	PrepTimer
	Instr
	g       *graph.Graph
	threads int
	p       *block.Partition
	width   int
	rp      runPool
}

// BlockGASConfig tunes the GPOP-like engine.
type BlockGASConfig struct {
	Side          int
	Threads       int
	Width         int
	MaxLoadFactor float64
}

// NewBlockGAS partitions the full graph (timed as its preprocessing).
func NewBlockGAS(g *graph.Graph, cfg BlockGASConfig) (*BlockGAS, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = sched.DefaultThreads()
	}
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.MaxLoadFactor == 0 {
		cfg.MaxLoadFactor = 2
	}
	if cfg.MaxLoadFactor < 0 {
		cfg.MaxLoadFactor = 0
	}
	e := &BlockGAS{g: g, threads: cfg.Threads, width: cfg.Width}
	var err error
	e.PrepTime = timed(func() {
		e.p, err = block.NewPartition(g.OutPtr, g.OutIdx, g.NumNodes(), block.Config{
			Side:          cfg.Side,
			MaxLoadFactor: cfg.MaxLoadFactor,
			Threads:       cfg.Threads,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("blockgas: %w", err)
	}
	return e, nil
}

// Name implements vprog.Engine.
func (e *BlockGAS) Name() string { return "blockgas" }

// Graph returns the input graph.
func (e *BlockGAS) Graph() *graph.Graph { return e.g }

// Partition exposes the underlying 2-D partition (for the memory model).
func (e *BlockGAS) Partition() *block.Partition { return e.p }

// Run implements vprog.Engine.
func (e *BlockGAS) Run(prog vprog.Program) (*vprog.Result, error) {
	if prog.Width() != e.width {
		return nil, fmt.Errorf("blockgas: engine built for width %d, program has %d", e.width, prog.Width())
	}
	s, err := e.rp.acquire(e.g, prog, e.threads)
	if err != nil {
		return nil, err
	}
	defer s.release()
	n, w, ring := s.n, s.w, s.ring
	p := e.p
	iter := 0
	var delta float64
	identity := ring.Identity()
	colDelta := s.scratchFloats(maxInt(p.B, 1))
	// Dynamic-bin values live in the setup (the partition is read-only),
	// addressed through each sub-block's EntryOff prefix offset.
	bins := s.binSpace(int(p.CompressedEntries) * w)
	runs, iters, iterNs := e.runInstruments(e.Name())
	runs.Inc()
	for iter < prog.MaxIter() {
		sp := obs.StartSpan(iterNs)
		// Scatter into the dynamic bins (parallel over sub-blocks).
		sched.For(len(p.Blocks), e.threads, 1, func(bi int) {
			sb := p.Blocks[bi]
			off := int(sb.EntryOff) * w
			vals := bins[off : off+len(sb.Srcs)*w]
			if ring == vprog.Sum {
				if w == 1 {
					for k, src := range sb.Srcs {
						vals[k] = s.x[src] * s.scale[src]
					}
					return
				}
				for k, src := range sb.Srcs {
					sc := s.scale[src]
					base := int(src) * w
					for l := 0; l < w; l++ {
						vals[k*w+l] = s.x[base+l] * sc
					}
				}
				return
			}
			for k, src := range sb.Srcs {
				sc := s.scale[src]
				base := int(src) * w
				for l := 0; l < w; l++ {
					vals[k*w+l] = s.x[base+l] + sc
				}
			}
		})
		// Zero-initialise receiver slots (no Cache step in plain GAS).
		sched.For(n, e.threads, 2048, func(v int) {
			if e.g.InPtr[v+1] == e.g.InPtr[v] {
				return
			}
			for l := 0; l < w; l++ {
				s.y[v*w+l] = identity
			}
		})
		// Gather per block-column, fused with Apply over the column range.
		sched.For(p.B, e.threads, 1, func(j int) {
			for _, sb := range p.Cols[j] {
				off := int(sb.EntryOff) * w
				vals := bins[off : off+len(sb.Srcs)*w]
				// One flat loop over the flagged destination stream: bit 31
				// steps to the next bin value (the message boundary GPOP marks
				// in the id's top bit), the low bits are the destination.
				k := -1
				if ring == vprog.Sum && w == 1 {
					for _, d := range sb.Dst {
						k += int(d >> 31)
						s.y[d&block.DstMask] += vals[k]
					}
					continue
				}
				for _, d := range sb.Dst {
					k += int(d >> 31)
					vb := vals[k*w : k*w+w]
					base := int(d&block.DstMask) * w
					if ring == vprog.Sum {
						for l := 0; l < w; l++ {
							s.y[base+l] += vb[l]
						}
					} else {
						for l := 0; l < w; l++ {
							if vb[l] < s.y[base+l] {
								s.y[base+l] = vb[l]
							}
						}
					}
				}
			}
			lo := j * p.Side
			hi := lo + p.Side
			if hi > n {
				hi = n
			}
			var d float64
			for v := lo; v < hi; v++ {
				if e.g.InPtr[v+1] == e.g.InPtr[v] {
					continue
				}
				d += prog.Apply(uint32(v), s.y[v*w:v*w+w], s.x[v*w:v*w+w], s.y[v*w:v*w+w])
			}
			colDelta[j] = d
		})
		s.x, s.y = s.y, s.x
		iter++
		delta = 0
		for j := 0; j < p.B; j++ {
			delta += colDelta[j]
		}
		sp.End()
		iters.Inc()
		if prog.Converged(delta, iter) {
			break
		}
	}
	return s.result(iter, delta), nil
}

// TrafficPerIteration models the GAS schedule's traffic on the actual
// partition (4m+3n of §3, adjusted for edge compression).
func (e *BlockGAS) TrafficPerIteration() int64 {
	return e.p.TrafficPerIteration(e.width, false)
}

// RandomAccessesPerIteration counts block switches, (n/c)² of §3.
func (e *BlockGAS) RandomAccessesPerIteration() int64 {
	return e.p.RandomAccessesPerIteration()
}
