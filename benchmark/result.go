package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place that names the workloads,
// the metrics, their units and their regression bounds. The program reads
// it instead of repeating the tables, so a metric cannot exist in one and
// not the other.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) find(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// result collects what one run of one workload measured.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	// Problems lists every correctness violation; each is also counted in
	// Failed, so a wrong answer can never hide behind a good latency.
	Problems []string
	Values   map[string]float64
	// Samples keeps the raw observations behind a reported median or
	// percentile, for the sample counts and quartiles in report.json.
	Samples map[string][]float64
	Hashes  map[string]string
}

func newResult(workload string) *result {
	return &result{
		Workload: workload,
		Values:   map[string]float64{},
		Samples:  map[string][]float64{},
		Hashes:   map[string]string{},
	}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// setMedian reports the median of samples (scaled into the metric's unit)
// and keeps the samples.
func (r *result) setMedian(name string, samples []float64, scale float64) {
	if len(samples) == 0 {
		return
	}
	scaled := make([]float64, len(samples))
	for i, s := range samples {
		scaled[i] = s * scale
	}
	r.Samples[name] = scaled
	r.Values[name] = median(scaled)
}

// setLatencies reports the client-side diagnostics of the operation times
// (in ms): the mean, and each tail percentile the sample supports.
func (r *result) setLatencies(ms []float64) {
	r.set("client.latency_mean_ms", mean(ms))
	for name, p := range map[string]float64{"client.latency_p95_ms": 95, "client.latency_p99_ms": 99} {
		if v, ok := tail(ms, p); ok {
			r.set(name, v)
		}
	}
}

// check counts one correctness check, failed when problem is non-empty.
func (r *result) check(problem string) {
	r.Attempted++
	if problem != "" {
		r.Failed++
		r.Problems = append(r.Problems, problem)
	}
}

func (r *result) correct() bool { return r.Failed == 0 }

// emitted is one metric value as the driver's contract wants it.
type emitted struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine builds the final stdout line: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one. A per-layer
// metric this workload's layers never touched reads 0.
func (r *result) contractLine(spec *benchSpec, traced bool) (string, error) {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	metrics := make(map[string]emitted, len(list))
	for _, m := range list {
		v, ok := r.Values[m.Name]
		if !ok && !traced {
			return "", fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, m.Name)
		}
		metrics[m.Name] = emitted{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]emitted `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	return string(out), err
}

// lines renders every measured value as "workload metric value unit". A
// value whose name BENCHMARK.json does not declare is a bug in this
// program, reported as an error.
func (r *result) lines(spec *benchSpec) ([]string, error) {
	names := make([]string, 0, len(r.Values))
	for name := range r.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		m, ok := spec.find(name)
		if !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
		out = append(out, fmt.Sprintf("%s %s %v %s", r.Workload, name, r.Values[name], m.Unit))
	}
	hashes := make([]string, 0, len(r.Hashes))
	for name := range r.Hashes {
		hashes = append(hashes, name)
	}
	sort.Strings(hashes)
	for _, name := range hashes {
		out = append(out, fmt.Sprintf("%s result_hash.%s %s fnv1a64", r.Workload, name, r.Hashes[name]))
	}
	return out, nil
}
