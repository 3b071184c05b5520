// Command mixenbench regenerates the paper's evaluation tables and figures
// on the synthetic dataset stand-ins.
//
// Usage:
//
//	mixenbench -experiment table3 [-shrink 8] [-iters 10] [-graphs wiki,road]
//	mixenbench -experiment all
//
// -h lists the experiments in the order -experiment all runs them.
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
	"slices"
	"strings"

	"mixen"
	"mixen/internal/bench"
)

// experiment is one named driver; experiments is the single list every
// name, the help text and -experiment all come from.
type experiment struct {
	name string
	run  func(bench.Options) (string, error)
}

// format adapts a driver and its formatter to an experiment's run.
func format[R any](study func(bench.Options) (R, error), show func(R) string) func(bench.Options) (string, error) {
	return func(o bench.Options) (string, error) {
		rows, err := study(o)
		return show(rows), err
	}
}

var experiments = []experiment{
	{"table1", format(bench.Table1, bench.FormatTable1)},
	{"table2", format(bench.Table2, bench.FormatTable2)},
	{"table3", format(bench.Table3, bench.FormatTable3)},
	{"table4", format(bench.Table4, bench.FormatTable4)},
	{"fig4", format(bench.Fig4, bench.FormatFig4)},
	{"fig5", format(bench.Fig5, bench.FormatFig5)},
	{"fig6", format(bench.Fig6, bench.FormatFig6)},
	{"fig7", format(bench.Fig7, bench.FormatFig7)},
	{"ablation", format(bench.Ablation, bench.FormatAblation)},
	{"autotune", runAutotune},
	{"model", format(bench.ModelStudy, bench.FormatModelStudy)},
	{"phases", format(bench.PhaseStudy, bench.FormatPhaseStudy)},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// runAutotune prints the exhaustive block-side sweep (the oracle), the
// measured auto-tuner's choice and DefaultSide; a tuner that misses the
// oracle by more than 10% is a warning.
func runAutotune(o bench.Options) (string, error) {
	rows, err := bench.AutotuneStudy(o)
	if err != nil {
		return "", err
	}
	out := bench.FormatAutotuneStudy(rows)
	if !bench.AutotuneWithinPct(rows, "measured", 0.10) {
		out += "WARNING: measured auto-tuned side is >10% slower than the exhaustive best\n"
	}
	return out, nil
}

func main() {
	which := flag.String("experiment", "all", "which experiment to run: "+experimentNames()+", or all")
	shrink := flag.Int("shrink", 8, "divide preset graph sizes by this factor")
	iters := flag.Int("iters", 10, "iterations per timed run (the paper uses 100)")
	threads := flag.Int("threads", 0, "worker threads (0 = all cores)")
	graphs := flag.String("graphs", "", "comma-separated preset subset (default: all eight)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while experiments run")
	flag.Parse()

	selected := experiments
	if *which != "all" {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == *which })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "mixenbench: unknown experiment %q (want one of %s, all)\n", *which, experimentNames())
			os.Exit(2)
		}
		selected = experiments[i : i+1]
	}

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

	for _, e := range selected {
		fmt.Printf("### %s (shrink=%d iters=%d)\n", e.name, *shrink, *iters)
		out, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mixenbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
