package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mixen/internal/block"
	"mixen/internal/filter"
	"mixen/internal/obs"
	"mixen/internal/vprog"
)

// Measured auto-tuning of the block side (Config.AutoTune).
//
// The paper's cache indicator c — the block side — trades Scatter locality
// (larger blocks stream longer source runs) against Gather working-set
// (smaller blocks keep one output segment cache-resident). DefaultSide is a
// heuristic over r and the thread count; the tuner replaces it with a
// measurement: build a partition per candidate side, run a few probe
// Main-Phase iterations on each, keep the fastest. The winning partition is
// handed back to the constructor so tuning never builds the final partition
// twice.
const (
	// tuneProbeIters is how many Main-Phase iterations one probe repetition
	// times; tuneProbeRepeats repeats and keeps the minimum (classic
	// best-of-k to shed scheduler noise).
	tuneProbeIters   = 3
	tuneProbeRepeats = 2
	// tuneMinSide/tuneMaxSide bound the power-of-two candidate ladder.
	// DefaultSide's own range is [256, 32768]; the ladder starts one octave
	// above its floor because sides below 512 only win on submatrices small
	// enough that DefaultSide (always a candidate) already lands there.
	tuneMinSide = 512
	tuneMaxSide = 32768
)

// SideTrial is one row of the auto-tuner's trial table (Engine.Tuned): a
// candidate block side, its partition geometry and build cost, and the
// measured probe time (best-of-tuneProbeRepeats over tuneProbeIters dense
// Main-Phase iterations).
type SideTrial struct {
	Side      int
	Blocks    int // block-grid dimension B at this side
	BuildTime time.Duration
	ProbeTime time.Duration
	Chosen    bool
}

// CandidateSides returns the auto-tuner's candidate ladder for a regular
// range of size r: DefaultSide plus powers of two in [tuneMinSide,
// tuneMaxSide], ascending, truncated after the first side >= r (every
// larger side collapses the grid to the same single-block layout). Exported
// so the exhaustive bench sweep times exactly the sides the tuner probes.
func CandidateSides(r, threads int) []int {
	seen := make(map[int]bool)
	var sides []int
	add := func(s int) {
		if s > 0 && !seen[s] {
			seen[s] = true
			sides = append(sides, s)
		}
	}
	add(block.DefaultSide(r, threads))
	for s := tuneMinSide; s <= tuneMaxSide; s *= 2 {
		add(s)
	}
	sort.Ints(sides)
	for i, s := range sides {
		if s >= r {
			return sides[:i+1]
		}
	}
	return sides
}

// tuneProbe is the tuner's measurement program: in-degree counting — width
// 1, Sum ring, constant unit inputs — so one probe iteration is exactly one
// SCGA sweep with the cheapest possible Apply, isolating the partition's
// memory behaviour. MaxIter 1: the single RunInWorkspace call only exists
// to initialise the workspace; the timed iterations drive the main loop
// directly.
type tuneProbe struct{}

func (tuneProbe) Width() int                   { return 1 }
func (tuneProbe) Ring() vprog.Ring             { return vprog.Sum }
func (tuneProbe) Init(_ uint32, out []float64) { out[0] = 1 }
func (tuneProbe) Scale(uint32) float64         { return 1 }
func (tuneProbe) Apply(_ uint32, sum, prev, out []float64) float64 {
	d := math.Abs(sum[0] - prev[0])
	out[0] = sum[0]
	return d
}
func (tuneProbe) Converged(float64, int) bool { return false }
func (tuneProbe) MaxIter() int                { return 1 }

// autotuneSide measures every candidate side on f and returns the trial
// table plus the winning partition (nil when the regular range is empty and
// there is nothing to tune). Probe engines force the dense Scatter path
// (tracking off): the in-degree probe quiesces after one iteration, and the
// block side shapes the dense sweep's locality — the frontier machinery is
// orthogonal to the choice.
func autotuneSide(f *filter.Filtered, cfg Config) ([]SideTrial, *block.Partition, error) {
	if f.NumRegular == 0 {
		return nil, nil, nil
	}
	pcfg := cfg
	pcfg.AutoTune = false
	pcfg.Trace = false
	pcfg.Collector = nil
	pcfg.DisableActiveTracking = true

	sides := CandidateSides(f.NumRegular, cfg.Threads)
	trials := make([]SideTrial, 0, len(sides))
	var best *block.Partition
	bestIdx := -1
	for _, side := range sides {
		bcfg := block.Config{
			Side:               side,
			MaxLoadFactor:      cfg.MaxLoadFactor,
			DisableCompression: cfg.DisableCompression,
			Threads:            cfg.Threads,
		}
		t0 := time.Now()
		p, err := block.NewPartition(f.RegPtr, f.RegIdx, f.NumRegular, bcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("side %d: %w", side, err)
		}
		build := time.Since(t0)
		probe, err := probeMainPhase(f, p, pcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("side %d: %w", side, err)
		}
		trials = append(trials, SideTrial{Side: side, Blocks: p.B, BuildTime: build, ProbeTime: probe})
		if bestIdx < 0 || probe < trials[bestIdx].ProbeTime {
			bestIdx = len(trials) - 1
			best = p
		}
	}
	trials[bestIdx].Chosen = true
	return trials, best, nil
}

// probeMainPhase times tuneProbeIters dense Main-Phase iterations on a
// throwaway engine wrapping (f, p), best of tuneProbeRepeats. The
// RunInWorkspace call initialises the workspace (property arrays, scale
// factors, static bins); the timed loop then drives iterateMain — the
// zero-allocation hot path the real runs use — directly.
func probeMainPhase(f *filter.Filtered, p *block.Partition, pcfg Config) (time.Duration, error) {
	e := &Engine{cfg: pcfg, F: f, P: p}
	e.SetCollector(obs.Default(nil))
	ws, err := e.NewWorkspace(1)
	if err != nil {
		return 0, err
	}
	if _, _, err := e.RunInWorkspace(tuneProbe{}, ws); err != nil {
		return 0, err
	}
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < tuneProbeRepeats; rep++ {
		t0 := time.Now()
		for i := 0; i < tuneProbeIters; i++ {
			ws.rc.iterateMain()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}
