package bench

import (
	"fmt"
	"strings"

	"mixen/internal/algo"
	"mixen/internal/core"
	"mixen/internal/graph"
)

// AutotuneRow is one row of the block-side auto-tuning study. Source is
// "sweep" for the exhaustive per-side measurements, "measured" for the
// engine's online tuner (Config.AutoTune), and "default" for the
// DefaultSide heuristic.
type AutotuneRow struct {
	Graph   string
	Source  string
	Side    int
	MainSec float64
	// TuneSec is the tuner's cost (zero for sweep and default rows).
	TuneSec float64
	// Best marks the fastest sweep row — the oracle the tuner chases.
	Best bool
}

// AutotuneStudy measures, per graph: every candidate side exhaustively
// (the oracle), the measured auto-tuner's choice, and the DefaultSide
// heuristic — each with its Main-Phase time so the tuner's regret against
// the oracle is directly readable.
func AutotuneStudy(o Options) ([]AutotuneRow, error) {
	o = o.withDefaults()
	graphs, order, err := o.buildGraphs()
	if err != nil {
		return nil, err
	}
	var rows []AutotuneRow
	for _, gname := range order {
		g := graphs[gname]
		de, err := core.New(g, core.Config{Threads: o.Threads})
		if err != nil {
			return nil, err
		}
		bestIdx := -1
		for _, side := range core.CandidateSides(de.F.NumRegular, o.Threads) {
			sec, err := timeMainPhase(g, core.Config{Threads: o.Threads, Side: side}, o)
			if err != nil {
				return nil, fmt.Errorf("bench: autotune %s side %d: %w", gname, side, err)
			}
			rows = append(rows, AutotuneRow{Graph: gname, Source: "sweep", Side: side, MainSec: sec})
			if bestIdx < 0 || sec < rows[bestIdx].MainSec {
				bestIdx = len(rows) - 1
			}
		}
		rows[bestIdx].Best = true

		me, err := core.New(g, core.Config{Threads: o.Threads, AutoTune: true})
		if err != nil {
			return nil, err
		}
		sec, err := timeMainPhaseOn(me, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AutotuneRow{
			Graph: gname, Source: "measured", Side: me.P.Side,
			MainSec: sec, TuneSec: me.Prep.TuneTime.Seconds(),
		})

		sec, err = timeMainPhaseOn(de, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AutotuneRow{Graph: gname, Source: "default", Side: de.P.Side, MainSec: sec})
	}
	return rows, nil
}

// AutotuneWithinPct reports whether, for every graph in the study, the
// named tuner's CHOICE is within pct (e.g. 0.10) of the best
// exhaustive-sweep side. The choice is judged by the sweep's own timing
// of the chosen side (same-conditions comparison), so run-to-run noise
// in the tuner's separate validation run cannot fail a tuner that
// picked the oracle's side; the tuner row's independently measured
// MainSec is the fallback when its side is outside the sweep ladder.
func AutotuneWithinPct(rows []AutotuneRow, source string, pct float64) bool {
	best := map[string]float64{}
	sweep := map[string]map[int]float64{}
	got := map[string]float64{}
	for _, r := range rows {
		if r.Source == "sweep" {
			if sweep[r.Graph] == nil {
				sweep[r.Graph] = map[int]float64{}
			}
			sweep[r.Graph][r.Side] = r.MainSec
			if r.Best {
				best[r.Graph] = r.MainSec
			}
		}
	}
	for _, r := range rows {
		if r.Source != source {
			continue
		}
		got[r.Graph] = r.MainSec
		if sec, ok := sweep[r.Graph][r.Side]; ok {
			got[r.Graph] = sec
		}
	}
	if len(best) == 0 || len(got) != len(best) {
		return false
	}
	for g, b := range best {
		if got[g] > b*(1+pct) {
			return false
		}
	}
	return true
}

// FormatAutotuneStudy renders the side study.
func FormatAutotuneStudy(rows []AutotuneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %8s %12s %10s %5s\n",
		"Graph", "Source", "side", "main s/it", "tune(s)", "best")
	for _, r := range rows {
		mark := ""
		if r.Best {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-8s %-10s %8d %12.6f %10.4f %5s\n",
			r.Graph, r.Source, r.Side, r.MainSec, r.TuneSec, mark)
	}
	return b.String()
}

// timeMainPhase builds an engine with cfg and returns its Main-Phase
// seconds per iteration under the study's InDegree run.
func timeMainPhase(g *graph.Graph, cfg core.Config, o Options) (float64, error) {
	e, err := core.New(g, cfg)
	if err != nil {
		return 0, err
	}
	return timeMainPhaseOn(e, o)
}

func timeMainPhaseOn(e *core.Engine, o Options) (float64, error) {
	_, stats, err := e.RunWithStats(algo.NewInDegree(o.Iters))
	if err != nil {
		return 0, err
	}
	iters := stats.MainIterations
	if iters == 0 {
		iters = 1
	}
	return stats.MainTime.Seconds() / float64(iters), nil
}
