// Command mixenbench regenerates the paper's evaluation tables and figures
// on the synthetic dataset stand-ins.
//
// Usage:
//
//	mixenbench -experiment table3 [-shrink 8] [-iters 10] [-graphs wiki,road]
//	mixenbench -experiment all
//
// Experiments: table1 table2 table3 table4 fig4 fig5 fig6 fig7 ablation
// threads reorder model phases concurrent batch frontier coldstart serve,
// or all.
//
// With -metrics-addr the process serves live scheduler metrics and pprof
// while the experiments run, e.g.:
//
//	mixenbench -experiment table3 -metrics-addr :6060 &
//	go tool pprof localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mixen"
	"mixen/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (table1..table4, fig4..fig7, ablation, threads, reorder, model, phases, concurrent, batch, frontier, coldstart, serve, all)")
	shrink := flag.Int("shrink", 8, "divide preset graph sizes by this factor")
	iters := flag.Int("iters", 10, "iterations per timed run (the paper uses 100)")
	threads := flag.Int("threads", 0, "worker threads (0 = all cores)")
	graphs := flag.String("graphs", "", "comma-separated preset subset (default: all eight)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while experiments run")
	flag.Parse()

	if *metricsAddr != "" {
		reg := mixen.NewMetricsRegistry()
		mixen.InstrumentScheduler(reg)
		srv, err := mixen.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixenbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr)
	}

	opts := bench.Options{Shrink: *shrink, Iters: *iters, Threads: *threads}
	if *graphs != "" {
		opts.Graphs = strings.Split(*graphs, ",")
	}

	runners := map[string]func(bench.Options) (string, error){
		"table1": func(o bench.Options) (string, error) {
			rows, err := bench.Table1(o)
			return bench.FormatTable1(rows), err
		},
		"table2": func(o bench.Options) (string, error) {
			rows, err := bench.Table2(o)
			return bench.FormatTable2(rows), err
		},
		"table3": func(o bench.Options) (string, error) {
			cells, err := bench.Table3(o)
			return bench.FormatTable3(cells), err
		},
		"table4": func(o bench.Options) (string, error) {
			rows, err := bench.Table4(o)
			return bench.FormatTable4(rows), err
		},
		"fig4": func(o bench.Options) (string, error) {
			rows, err := bench.Fig4(o)
			return bench.FormatFig4(rows), err
		},
		"fig5": func(o bench.Options) (string, error) {
			rows, err := bench.Fig5(o)
			return bench.FormatFig5(rows), err
		},
		"fig6": func(o bench.Options) (string, error) {
			rows, err := bench.Fig6(o)
			return bench.FormatFig6(rows), err
		},
		"fig7": func(o bench.Options) (string, error) {
			rows, err := bench.Fig7(o)
			return bench.FormatFig7(rows), err
		},
		"ablation": func(o bench.Options) (string, error) {
			rows, err := bench.Ablation(o)
			return bench.FormatAblation(rows), err
		},
		"threads": func(o bench.Options) (string, error) {
			rows, err := bench.ThreadSweep(o)
			return bench.FormatThreadSweep(rows), err
		},
		"reorder": func(o bench.Options) (string, error) {
			rows, err := bench.ReorderStudy(o)
			if err != nil {
				return "", err
			}
			out := bench.FormatReorderStudy(rows)
			var studied []string
			seen := map[string]bool{}
			for _, r := range rows {
				if !r.Identical {
					return "", fmt.Errorf("reorder: %s/%s results differ from the original layout", r.Graph, r.Strategy)
				}
				if !seen[r.Graph] {
					seen[r.Graph] = true
					studied = append(studied, r.Graph)
				}
			}
			wins := false
			for _, g := range studied {
				if bench.ReorderLightweightWins(rows, g) {
					wins = true
					break
				}
			}
			if !wins {
				out += "WARNING: no skew-aware strategy beat the original layout on simulated traffic\n"
			}
			at, err := bench.AutotuneStudy(o)
			if err != nil {
				return "", err
			}
			out += "\n" + bench.FormatAutotuneStudy(at)
			if !bench.AutotuneWithinPct(at, "measured", 0.10) {
				out += "WARNING: measured auto-tuned side is >10% slower than the exhaustive best\n"
			}
			if !bench.AutotuneWithinPct(at, "predicted", 0.10) {
				out += "WARNING: predicted side is >10% slower than the exhaustive best\n"
			}
			return out, nil
		},
		"model": func(o bench.Options) (string, error) {
			rows, err := bench.ModelStudy(o)
			return bench.FormatModelStudy(rows), err
		},
		"phases": func(o bench.Options) (string, error) {
			rows, err := bench.PhaseStudy(o)
			return bench.FormatPhaseStudy(rows), err
		},
		"concurrent": func(o bench.Options) (string, error) {
			rows, err := bench.ConcurrentStudy(o)
			return bench.FormatConcurrentStudy(rows), err
		},
		"batch": func(o bench.Options) (string, error) {
			rows, err := bench.BatchStudy(o)
			if err != nil {
				return "", err
			}
			out := bench.FormatBatchStudy(rows)
			if err := bench.BatchTrafficMonotone(rows); err != nil {
				out += "WARNING: " + err.Error() + "\n"
			}
			return out, nil
		},
		"frontier": func(o bench.Options) (string, error) {
			rows, err := bench.FrontierStudy(o)
			if err != nil {
				return "", err
			}
			out := bench.FormatFrontierStudy(rows)
			if err := bench.FrontierWorkReduced(rows); err != nil {
				out += "WARNING: " + err.Error() + "\n"
			}
			return out, nil
		},
		"serve": func(o bench.Options) (string, error) {
			rows, err := bench.ServeStudy(o)
			if err != nil {
				return "", err
			}
			out := bench.FormatServeStudy(rows)
			// Hard gate: cached answers bit-identical to fresh runs.
			if err := bench.ServeIdentity(rows); err != nil {
				return "", err
			}
			if err := bench.ServeCacheWins(rows); err != nil {
				out += "WARNING: " + err.Error() + "\n"
			}
			return out, nil
		},
		"coldstart": func(o bench.Options) (string, error) {
			rows, err := bench.ColdstartStudy(o)
			if err != nil {
				return "", err
			}
			out := bench.FormatColdstartStudy(rows)
			if err := bench.ColdstartInstant(rows); err != nil {
				out += "WARNING: " + err.Error() + "\n"
			}
			return out, nil
		},
	}

	order := []string{"table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7", "ablation", "threads", "reorder", "model", "phases", "concurrent", "batch", "frontier", "coldstart", "serve"}
	var selected []string
	if *experiment == "all" {
		selected = order
	} else {
		if _, ok := runners[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "mixenbench: unknown experiment %q (want one of %s, all)\n",
				*experiment, strings.Join(order, ", "))
			os.Exit(2)
		}
		selected = []string{*experiment}
	}

	for _, name := range selected {
		fmt.Printf("### %s (shrink=%d iters=%d)\n", name, *shrink, *iters)
		out, err := runners[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mixenbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
