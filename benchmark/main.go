// Command benchmark is the repository's one benchmark: four workloads that
// drive the real system from outside — the public Go API in-process for
// the batch workloads, a spawned mixenserve over HTTP for the serve
// workloads — and report the end-to-end and per-layer metrics that
// BENCHMARK.json declares. See README.md.
//
//	bash benchmark/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is what every workload gets.
type options struct {
	seed    int64
	seconds float64
	smoke   bool
	host    hostInfo // nproc, GOMAXPROCS and cache sizes of this machine
	root    string   // the repository root, which is the working directory
	tmp     string   // scratch inside the checkout, removed on every path
	out     string   // spans.jsonl, server.log and report.json land here
}

// workloads maps the names BENCHMARK.json declares to their drivers.
var workloads = map[string]func(context.Context, options, *tracer, *result) error{
	"rmat20-dense": func(ctx context.Context, o options, tr *tracer, r *result) error {
		return runBatch(ctx, rmatDense(o), o, tr, r)
	},
	"pld-portfolio": func(ctx context.Context, o options, tr *tracer, r *result) error {
		return runBatch(ctx, pldPortfolio(o), o, tr, r)
	},
	"serve-lone": func(ctx context.Context, o options, tr *tracer, r *result) error {
		return runServe(ctx, serveLone(o), o, tr, r)
	},
	"serve-zipf": func(ctx context.Context, o options, tr *tracer, r *result) error {
		return runServe(ctx, serveZipf(o), o, tr, r)
	},
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 2
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "length of the timed window (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 records spans and counters and reports the per-layer metrics")
		out      = flag.String("out", "", "directory for spans.jsonl, server.log and report.json (default .bench_build/out/<workload>)")
		aa       = flag.Int("aa", 0, "A/A calibration: run each selected workload this many times and compare the runs")
		vary     = flag.Bool("vary-seed", false, "with -aa, give run i the seed seed+i, as the driver's spread check does")
		smoke    = flag.Bool("smoke", false, "toy sizes with every check on; proves the harness, measures nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return 0, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return 0, fmt.Errorf("--trace takes 0 or 1, not %d", *trace)
	}
	root, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "mixenserve")); err != nil {
		return 0, fmt.Errorf("run from the repository root: %w", err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			if workloads[w.Name] == nil {
				return 0, fmt.Errorf("BENCHMARK.json names workload %q, which this program does not have", w.Name)
			}
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("unknown workload %q", *workload)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke, host: readHost(root), root: root}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, err
	}
	if o.tmp, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return 0, err
	}
	defer os.RemoveAll(o.tmp)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	outDir := func(name string) string {
		if *out != "" {
			return *out
		}
		return filepath.Join(root, ".bench_build", "out", name+strings.Repeat("-trace", *trace))
	}
	if len(names) == 1 && *aa == 0 {
		o.out = outDir(names[0])
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return 0, err
		}
		r, err := measure(ctx, spec, names[0], o, *trace == 1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", names[0], err)
		}
		if !r.correct() {
			return 1, nil
		}
		return 0, nil
	}

	// Several runs in one invocation: each is a process of its own, as the
	// driver's are, so no run inherits another's heap or warm caches.
	code := 0
	for _, name := range names {
		var runs []childRun
		for i := 0; i < max(*aa, 1); i++ {
			runSeed := *seed
			if *vary {
				runSeed += int64(i)
			}
			args := []string{"--workload", name, "--seed", strconv.FormatInt(runSeed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace), "--out", outDir(name)}
			if *smoke {
				args = append(args, "--smoke")
			}
			run, err := child(ctx, args)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			if !run.Correct {
				code = 1
			}
			runs = append(runs, run)
		}
		if *aa > 0 && !calibrate(spec, name, runs, *trace == 1, !*vary) {
			code = 1
		}
	}
	return code, nil
}

// measure runs one workload once, prints "workload metric value unit"
// lines, writes the span and report files, and ends with the one-line JSON
// object the driver reads.
func measure(ctx context.Context, spec *benchSpec, name string, o options, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := newResult(name)
	if err := workloads[name](ctx, o, tr, r); err != nil {
		return nil, err
	}
	lines, err := r.lines(spec)
	if err != nil {
		return nil, err
	}
	if o.smoke {
		lines = append(lines, name+" smoke 1 bool")
	}
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", name, p)
	}
	spansFile := ""
	if traced {
		spansFile = filepath.Join(o.out, "spans.jsonl")
		if err := writeSpans(spansFile, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	if err := writeReport(filepath.Join(o.out, "report.json"), spec, r, o, traced, spansFile); err != nil {
		return nil, err
	}
	last, err := r.contractLine(spec, traced)
	if err != nil {
		return nil, err
	}
	fmt.Println(strings.Join(append(lines, last), "\n"))
	return r, nil
}

// childRun is what one run of this program printed.
type childRun struct {
	Correct bool               `json:"correct"`
	Metrics map[string]emitted `json:"metrics"`
	hashes  map[string]string
}

// child runs this program again with args, passes its output through and
// reads its result back. A run that found wrong answers (exit 1) still has
// a result; any other failure is an error.
func child(ctx context.Context, args []string) (childRun, error) {
	var run childRun
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	// On interrupt the run must get to stop its server, so ask, not kill.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	os.Stdout.Write(stdout)
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return run, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run); err != nil {
		return run, fmt.Errorf("last line of the run is not its result: %w", err)
	}
	run.hashes = map[string]string{}
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 4 && strings.HasPrefix(f[1], "result_hash.") {
			run.hashes[f[1]] = f[2]
		}
	}
	return run, nil
}

// calibrate is the A/A summary of several runs of one workload: each
// metric's min, median, max, largest deviation from the median and
// inter-quartile spread. It fails when an end-to-end metric deviates by
// more than its bound, or when runs of one seed hash a result differently.
func calibrate(spec *benchSpec, name string, runs []childRun, traced, sameSeed bool) bool {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	ok := true
	for i, run := range runs {
		for key, h := range run.hashes {
			if want, seen := runs[0].hashes[key]; sameSeed && seen && want != h {
				ok = false
				fmt.Fprintf(os.Stderr, "%s: FAILED: run %d has %s %s, run 0 has %s\n", name, i, key, h, want)
			}
		}
	}
	for _, m := range list {
		xs := make([]float64, len(runs))
		for i, run := range runs {
			xs[i] = run.Metrics[m.Name].Value
		}
		dev := maxDeviation(xs)
		s := sorted(xs)
		for _, row := range []struct {
			stat, unit string
			v          float64
		}{
			{"min", m.Unit, s[0]}, {"median", m.Unit, median(xs)}, {"max", m.Unit, s[len(s)-1]},
			{"max_dev", "ratio", dev}, {"spread", "ratio", spread(xs)},
		} {
			fmt.Printf("%s aa.%s.%s %v %s\n", name, m.Name, row.stat, row.v, row.unit)
		}
		if m.Bound > 0 && dev > m.Bound {
			ok = false
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s deviates %.1f%% between runs, its bound is %.1f%%\n",
				name, m.Name, dev*100, m.Bound*100)
		}
	}
	return ok
}

// hostInfo makes a report self-describing.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L1Bytes    int    `json:"l1d_bytes"`
	L2Bytes    int    `json:"l2_bytes"`
	L3Bytes    int    `json:"l3_bytes"`
}

func readHost(root string) hostInfo {
	h := hostInfo{
		Commit:    "unknown",
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// A driver's checkout is not a git repository; a developer's is.
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		h.Commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h.Commit, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				h.Commit = strings.TrimSpace(string(sha))
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range dirs {
		read := func(file string) string {
			raw, _ := os.ReadFile(filepath.Join(dir, file))
			return strings.TrimSpace(string(raw))
		}
		size, err := strconv.Atoi(strings.TrimSuffix(read("size"), "K"))
		if err != nil || read("type") == "Instruction" {
			continue
		}
		switch read("level") {
		case "1":
			h.L1Bytes = size << 10
		case "2":
			h.L2Bytes = size << 10
		case "3":
			h.L3Bytes = size << 10
		}
	}
	return h
}

// writeReport writes the self-describing record of one run: host, inputs,
// every metric with its sample count and quartiles, result hashes, and
// where the spans went.
func writeReport(path string, spec *benchSpec, r *result, o options, traced bool, spansFile string) error {
	type metric struct {
		Value   float64  `json:"value"`
		Unit    string   `json:"unit"`
		Samples int      `json:"samples,omitempty"`
		Q1      *float64 `json:"q1,omitempty"`
		Q3      *float64 `json:"q3,omitempty"`
	}
	metrics := map[string]metric{}
	for name, v := range r.Values {
		spec, _ := spec.find(name)
		m := metric{Value: v, Unit: spec.Unit, Samples: len(r.Samples[name])}
		if m.Samples >= 2 {
			q1, _, q3 := quartiles(r.Samples[name])
			m.Q1, m.Q3 = &q1, &q3
		}
		metrics[name] = m
	}
	raw, err := json.MarshalIndent(map[string]any{
		"workload": r.Workload, "seed": o.seed, "seconds": o.seconds, "trace": traced, "smoke": o.smoke,
		"host": o.host, "correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed,
		"problems": r.Problems, "metrics": metrics, "result_hash": r.Hashes, "spans_file": spansFile,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
