package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile/median must not reorder their input")
	}
	if median(nil) != 0 || percentile(nil, 95) != 0 {
		t.Error("empty samples must read 0")
	}
}

// The guide's rule: a tail percentile is reported only with at least ten
// samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesBeyond(10000, 95); got != 500 {
		t.Errorf("10000 samples leave %d beyond p95, want 500", got)
	}
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tail(xs, 95); ok {
		t.Error("199 samples leave 9 beyond p95: it must not be reported")
	}
	xs = append(xs, 200)
	if v, ok := tail(xs, 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with exactly ten samples beyond", v, ok)
	}
	if _, ok := tail(xs, 99); ok {
		t.Error("200 samples leave 2 beyond p99: it must not be reported")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver uses: [2.75, 5.5, 8.25] for 1..10.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	q1, q2, q3 = quartiles([]float64{13, 10, 11})
	if q1 != 10 || q2 != 11 || q3 != 13 {
		t.Errorf("quartiles of three = %v %v %v, want 10 11 13", q1, q2, q3)
	}
	if got := maxDeviation([]float64{90, 100, 100, 125}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("maxDeviation = %v, want 0.25", got)
	}
}

// A stall must cost the stretches it falls into, not the reported rate.
func TestStretchRateIgnoresAStall(t *testing.T) {
	// 100 completions a second for ten seconds, with a 3 s stall after the
	// 400th: the plain rate is 1000/13, the robust one stays 100.
	var ends []float64
	for i := 1; i <= 1000; i++ {
		at := float64(i) / 100
		if i > 400 {
			at += 3
		}
		ends = append(ends, at)
	}
	if got := stretchRate(ends, 10); math.Abs(got-100) > 1e-9 {
		t.Errorf("stretchRate = %v, want 100", got)
	}
	// Too few completions to cut up: count over time.
	if got := stretchRate([]float64{0.5, 1, 2}, 10); got != 1.5 {
		t.Errorf("stretchRate of three completions = %v, want 3/2 s", got)
	}
	if stretchRate(nil, 10) != 0 {
		t.Error("no completions must read 0")
	}
}
