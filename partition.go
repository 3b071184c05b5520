package mixen

import (
	"fmt"

	"mixen/internal/algo"
	"mixen/internal/core"
	"mixen/internal/partio"
)

// PartitionMeta is the scalar shape and baked layout decision of a .mixp
// partition file: node-class counts, partition geometry, the auto-tune
// flag persisted at build time, and the build epoch.
type PartitionMeta = partio.Meta

// PartitionOpenOptions tunes OpenPartition. The zero value verifies the
// whole-file checksum before serving (recommended); SkipChecksum preserves
// pure lazy paging for partitions larger than RAM.
type PartitionOpenOptions = partio.Options

// WritePartition serializes a preprocessed engine — the relabeling and
// demux tables, seed/sink structures, the 2-D blocked partition with its
// per-source entry index, the out-degree snapshot, and the layout decision
// (block side + auto-tune provenance) — into a .mixp file that
// OpenPartition maps back with zero deserialization.
//
// Build the engine with New (optionally with Config.AutoTune or
// DisableHubOrder; whatever layout it built is what the file holds).
func WritePartition(path string, e *MixenEngine) error {
	if e == nil {
		return fmt.Errorf("mixen: WritePartition: nil engine")
	}
	g := e.Graph()
	if g == nil {
		return fmt.Errorf("mixen: WritePartition: engine carries no source graph (a mapped engine cannot be re-serialized)")
	}
	return partio.Write(path, e.F, e.P, algo.OutDegrees(g), partio.Layout{AutoTuned: len(e.Tuned) > 0})
}

// MappedEngine is a MixenEngine whose filtered form and partition are
// backed directly by a .mixp file mapping: OpenPartition returns one
// serving queries immediately, page-cache-shared with every other process
// that mapped the same file. The embedded engine runs everything a built
// engine does — Run, RunCtx, workspaces, the Batcher — except operations
// that need the original graph (Graph() returns nil) or mutate the layout.
//
// Close releases the mapping; no query may be in flight or issued after.
type MappedEngine struct {
	*MixenEngine
	file *partio.File
}

// OpenPartition maps the .mixp file at path (written by WritePartition or
// `mixenconvert -partition`) and assembles a serving engine in place: no
// filter pass, no partitioning, no copies of the arrays. Header,
// architecture and checksum are verified first (see PartitionOpenOptions).
// Run-time Config knobs (Threads, SparseDensity, Trace, Collector, the
// Disable* toggles) apply; build-time ones (Side, AutoTune) are baked into
// the file and rejected if they conflict.
//
// Files are used in place, never converted: one written in an older format
// version (before version 2's flag-delimited destination streams) is
// refused with an error naming the way out — rebuild it from the graph
// with `mixenconvert -partition`.
func OpenPartition(path string, cfg Config, opts ...PartitionOpenOptions) (*MappedEngine, error) {
	pf, err := partio.Open(path, opts...)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewFromPrebuilt(pf.F, pf.P, cfg)
	if err != nil {
		pf.Close()
		return nil, err
	}
	return &MappedEngine{MixenEngine: eng, file: pf}, nil
}

// Meta returns the partition file's metadata (shape + baked layout).
func (m *MappedEngine) Meta() PartitionMeta { return m.file.Meta }

// OutDegrees returns the original graph's out-degree snapshot stored in
// the file, indexed by original node id — exactly what the *Shared program
// constructors consume, so serving needs no graph. The slice is backed by
// the mapping: treat it as immutable and do not use it after Close.
func (m *MappedEngine) OutDegrees() []float64 { return m.file.OutDeg }

// PartitionPath returns the mapped file's path.
func (m *MappedEngine) PartitionPath() string { return m.file.Path() }

// MappedFromFile reports whether the arrays are mmap-backed (false means
// the platform fallback copied the file into memory).
func (m *MappedEngine) MappedFromFile() bool { return m.file.Mapped() }

// Close unmaps the partition file. Every result of OutDegrees and every
// engine structure becomes invalid; callers must ensure no run is in
// flight.
func (m *MappedEngine) Close() error { return m.file.Close() }

// NewBFSProgramForN is NewBFSProgram for serving paths that know only the
// node count — e.g. a MappedEngine, which has no graph (the graph is used
// solely for the iteration bound).
func NewBFSProgramForN(n int, source uint32) Program { return algo.NewBFSN(n, source) }
