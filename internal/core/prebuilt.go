package core

import (
	"fmt"

	"mixen/internal/block"
	"mixen/internal/filter"
)

// NewFromPrebuilt wraps an already-built filtered form and partition — in
// practice one loaded from a .mixp file by internal/partio — in an Engine
// without running any preprocessing: no filter pass, no tuning, no
// partitioning. The SCGA run path only ever reads f and p (the PR2
// immutability contract), so an engine over a read-only mapping serves
// queries exactly like one built from edges.
//
// Build-time decisions travel with the partition, so cfg must not ask for
// them again: a non-zero Side that disagrees with p, or AutoTune, is an
// error — re-run mixenconvert to bake a different layout. Run-time knobs
// (Threads, SparseDensity, Trace, Collector, the Disable* execution
// toggles) apply normally.
func NewFromPrebuilt(f *filter.Filtered, p *block.Partition, cfg Config) (*Engine, error) {
	if f == nil || p == nil {
		return nil, fmt.Errorf("core: prebuilt: nil filtered form or partition")
	}
	if f.NumRegular != p.R {
		return nil, fmt.Errorf("core: prebuilt: partition is %d×%d but filtered form has %d regular nodes", p.R, p.R, f.NumRegular)
	}
	if cfg.Side != 0 && cfg.Side != p.Side {
		return nil, fmt.Errorf("core: prebuilt: requested side %d but the partition was built with side %d (rebuild the file to change it)", cfg.Side, p.Side)
	}
	if cfg.AutoTune {
		return nil, fmt.Errorf("core: prebuilt: auto-tuning is a build-time decision; rebuild the file with -autotune")
	}
	cfg = cfg.withDefaults()
	cfg.Side = p.Side
	e := &Engine{
		cfg:      cfg,
		F:        f,
		P:        p,
		prebuilt: true,
	}
	e.SetCollector(cfg.Collector)
	return e, nil
}
