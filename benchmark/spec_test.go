package main

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is read by the driver before a single run; this holds it
// to the limits the driver states, and to what this program implements.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		unique(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver in this program", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func TestContractLineHoldsExactlyTheDeclaredMetrics(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "op_p50_ms", Unit: "ms"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []metricSpec{{Name: "core.main_s", Unit: "s"}, {Name: "servecache.hits", Unit: "count"}},
	}
	r := newResult("w")
	r.set("op_p50_ms", 1.25)
	r.set("core.main_s", 0.5)
	r.Attempted = 3
	if _, err := r.contractLine(spec, false); err == nil {
		t.Error("an untraced run without setup_s must be refused")
	}
	r.set("setup_s", 2)
	for traced, want := range map[bool]map[string]emitted{
		false: {"op_p50_ms": {1.25, "ms"}, "setup_s": {2, "s"}},
		// A layer this workload never touched reads 0.
		true: {"core.main_s": {0.5, "s"}, "servecache.hits": {0, "count"}},
	} {
		line, err := r.contractLine(spec, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]emitted
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted != 3 || got.Failed != 0 || len(got.Metrics) != len(want) {
			t.Errorf("traced=%v: %s", traced, line)
		}
		for n, m := range want {
			if got.Metrics[n] != m {
				t.Errorf("traced=%v: %s = %v, want %v", traced, n, got.Metrics[n], m)
			}
		}
	}
	r.check("wrong answer")
	if r.correct() || r.Failed != 1 || r.Attempted != 4 {
		t.Errorf("a failed check must count: %+v", r)
	}
	r.set("undeclared", 1)
	if _, err := r.lines(spec); err == nil {
		t.Error("a measured metric BENCHMARK.json does not declare must be an error")
	}
}

// top must reproduce the server's rule, or the bit-for-bit check of the
// serve workloads would fail on ties.
func TestTopFollowsTheServersRule(t *testing.T) {
	inf := math.Inf(1)
	values := []float64{0.1, 0.4, 0.4, inf, 0.2}
	got := top(values, 2, false)
	if len(got) != 2 || got[0].Node != 3 || got[1].Node != 1 {
		t.Errorf("descending top-2 = %v, want nodes 3 then 1", got)
	}
	got = top(values, 10, true)
	if len(got) != 4 || got[0].Node != 0 || got[1].Node != 4 || got[2].Node != 1 || got[3].Node != 2 {
		t.Errorf("ascending top = %v, want 0 4 1 2 with the unreachable node dropped", got)
	}
}

func TestRelCloseAndHashValues(t *testing.T) {
	if !relClose(1, 1+1e-12, 1e-9) || relClose(1, 1.001, 1e-9) || !relClose(1e12, 1e12+1, 1e-9) {
		t.Error("relClose must be relative above 1 and absolute below")
	}
	if hashValues([]float64{1, 2}) == hashValues([]float64{2, 1}) || hashValues([]float64{0}) == hashValues([]float64{math.Copysign(0, -1)}) {
		t.Error("hashValues must depend on order and on the exact bit pattern")
	}
}
