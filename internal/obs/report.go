// Run reports: the JSON-serializable record of one engine execution, plus
// the human-readable per-iteration timeline the -trace flag prints. The
// schema is deliberately engine-agnostic — phase names and metrics are
// free-form — so one report type serves Mixen and all four baselines.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// GraphInfo summarizes the input graph inside a RunReport.
type GraphInfo struct {
	Name  string `json:"name,omitempty"`
	Nodes int    `json:"nodes"`
	Edges int64  `json:"edges"`
}

// PhaseTiming is one named phase's wall time.
type PhaseTiming struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// Duration returns the phase time as a time.Duration.
func (p PhaseTiming) Duration() time.Duration { return time.Duration(p.Ns) }

// IterationTrace records one main-phase iteration of an SCGA engine.
type IterationTrace struct {
	Iter int `json:"iter"`
	// ScatterNs/CacheNs/GatherNs split the iteration into the three SCGA
	// steps (Gather includes the fused Apply).
	ScatterNs int64 `json:"scatter_ns"`
	CacheNs   int64 `json:"cache_ns"`
	GatherNs  int64 `json:"gather_ns"`
	// Delta is the iteration's total convergence delta.
	Delta float64 `json:"delta"`
	// ActiveBlockRows / TotalBlockRows is the activity mask's view of the
	// iteration: how many block-rows had to be re-scattered.
	ActiveBlockRows int `json:"active_block_rows"`
	TotalBlockRows  int `json:"total_block_rows"`
	// SkippedBlocks counts sub-blocks whose Scatter was skipped. The unit
	// is sub-blocks in every engine path.
	SkippedBlocks int64 `json:"skipped_blocks"`
	// FrontierNodes / FrontierEntries size the iteration's frontier: the
	// nodes whose value changed last iteration and the dynamic-bin entries
	// those nodes own. On the first iteration (or with tracking off) the
	// frontier is the whole regular set.
	FrontierNodes   int   `json:"frontier_nodes,omitempty"`
	FrontierEntries int64 `json:"frontier_entries,omitempty"`
	// DenseRows / SparseRows count the iteration's per-block-row mode
	// decisions (skipped rows are ActiveBlockRows' complement).
	DenseRows  int `json:"dense_rows,omitempty"`
	SparseRows int `json:"sparse_rows,omitempty"`
	// Push marks an iteration whose Gather ran by push: only the changed
	// entries were folded, into the previous values, and the Cache step
	// was skipped.
	Push bool `json:"push,omitempty"`
	// ScatterEntries / GatherEdges measure the work actually done: bin
	// entries (re)written by Scatter and edges replayed by Gather.
	ScatterEntries int64 `json:"scatter_entries,omitempty"`
	GatherEdges    int64 `json:"gather_edges,omitempty"`
}

// TotalNs returns the iteration's traced time.
func (it IterationTrace) TotalNs() int64 { return it.ScatterNs + it.CacheNs + it.GatherNs }

// RunReport is the full record of one engine run. It serializes to JSON
// (see JSON / ParseRunReport) and renders as text (see Format functions).
type RunReport struct {
	// Engine is the engine name ("mixen", "pull", ...).
	Engine string `json:"engine"`
	// Algorithm names the vertex program ("pagerank", ...).
	Algorithm string    `json:"algorithm,omitempty"`
	Graph     GraphInfo `json:"graph"`
	// Config is the effective configuration the run used, after defaulting
	// and flag plumbing — what actually happened, not what was requested.
	Config map[string]string `json:"config,omitempty"`
	// Phases is the coarse breakdown: preprocessing and the pre/main/post
	// execution phases, in execution order.
	Phases []PhaseTiming `json:"phases,omitempty"`
	// Iterations / Delta mirror the vprog.Result convergence outcome.
	Iterations int     `json:"iterations"`
	Delta      float64 `json:"delta"`
	// Trace is the per-iteration timeline (present when tracing was on).
	Trace []IterationTrace `json:"trace,omitempty"`
	// Metrics is the collector snapshot at report time, if one was attached.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// AddPhase appends a named phase timing.
func (r *RunReport) AddPhase(name string, d time.Duration) {
	r.Phases = append(r.Phases, PhaseTiming{Name: name, Ns: int64(d)})
}

// Phase returns the named phase's duration (0 when absent).
func (r *RunReport) Phase(name string) time.Duration {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Duration()
		}
	}
	return 0
}

// JSON serializes the report (indented, stable field order).
func (r *RunReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseRunReport deserializes a report produced by JSON.
func ParseRunReport(data []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parse run report: %w", err)
	}
	return &r, nil
}

// FormatHeader renders the effective-config header printed before a run:
//
//	run: engine=mixen algo=pagerank graph=wiki(n=244160 m=4223988)
//	cfg: iters=100 tol=1e-09 threads=8
func (r *RunReport) FormatHeader() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: engine=%s algo=%s", r.Engine, r.Algorithm)
	if r.Graph.Name != "" {
		fmt.Fprintf(&b, " graph=%s", r.Graph.Name)
	}
	fmt.Fprintf(&b, "(n=%d m=%d)", r.Graph.Nodes, r.Graph.Edges)
	if len(r.Config) > 0 {
		keys := make([]string, 0, len(r.Config))
		for k := range r.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("\ncfg:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, r.Config[k])
		}
	}
	return b.String()
}

// FormatSummary renders the phase breakdown and convergence outcome.
func (r *RunReport) FormatSummary() string {
	var b strings.Builder
	var total int64
	for _, p := range r.Phases {
		total += p.Ns
	}
	fmt.Fprintf(&b, "phases:")
	for _, p := range r.Phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Ns) / float64(total)
		}
		fmt.Fprintf(&b, " %s=%s(%.1f%%)", p.Name, time.Duration(p.Ns).Round(time.Microsecond), share)
	}
	fmt.Fprintf(&b, "\nconverged: %d iterations, delta %.3g", r.Iterations, r.Delta)
	return b.String()
}

// FormatTimeline renders the per-iteration trace as a table:
//
//	iter   scatter     cache    gather       delta   active  dn/sp     front      entries    edges  skipped
//	   1   1.21ms    0.18ms    3.02ms   1.4e-01     12/12   12/0       4096       131072   911842        0
//
// dn/sp are the iteration's dense/sparse block-row mode decisions, front
// the frontier node count, entries the bin entries Scatter rewrote, edges
// the edges Gather replayed.
func FormatTimeline(trace []IterationTrace) string {
	if len(trace) == 0 {
		return "trace: (empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %11s %11s %11s %12s %11s %9s %9s %12s %12s %9s\n",
		"iter", "scatter", "cache", "gather", "delta", "active", "dn/sp", "front", "entries", "edges", "skipped")
	var scatter, cache, gather, skipped, entries, edges int64
	for _, it := range trace {
		mode := ""
		if it.Push {
			mode = " push"
		}
		fmt.Fprintf(&b, "%5d %11s %11s %11s %12.4g %5d/%-5d %4d/%-4d %9d %12d %12d %9d%s\n",
			it.Iter,
			time.Duration(it.ScatterNs).Round(time.Microsecond),
			time.Duration(it.CacheNs).Round(time.Microsecond),
			time.Duration(it.GatherNs).Round(time.Microsecond),
			it.Delta, it.ActiveBlockRows, it.TotalBlockRows,
			it.DenseRows, it.SparseRows, it.FrontierNodes,
			it.ScatterEntries, it.GatherEdges, it.SkippedBlocks, mode)
		scatter += it.ScatterNs
		cache += it.CacheNs
		gather += it.GatherNs
		skipped += it.SkippedBlocks
		entries += it.ScatterEntries
		edges += it.GatherEdges
	}
	fmt.Fprintf(&b, "%5s %11s %11s %11s %12s %11s %9s %9s %12d %12d %9d\n",
		"total",
		time.Duration(scatter).Round(time.Microsecond),
		time.Duration(cache).Round(time.Microsecond),
		time.Duration(gather).Round(time.Microsecond),
		"", "", "", "", entries, edges, skipped)
	return b.String()
}
