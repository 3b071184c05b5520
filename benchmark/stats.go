package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs;
// 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// rank: the evidence a reported tail percentile rests on.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// tail is the p-th percentile of xs when at least ten samples lie beyond
// it (the rule of the choosing-metrics guide); otherwise the sample cannot
// support that percentile and ok is false.
func tail(xs []float64, p float64) (v float64, ok bool) {
	if samplesBeyond(len(xs), p) < 10 {
		return 0, false
	}
	return percentile(xs, p), true
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the driver computes spreads
// with. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// maxDeviation is the largest |x − median| as a share of the median.
func maxDeviation(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	var worst float64
	for _, x := range xs {
		if d := math.Abs(x-m) / math.Abs(m); d > worst {
			worst = d
		}
	}
	return worst
}

// stretchRate is the throughput of a closed loop, robust against the
// bursts a shared host throws in: the completion times (seconds from the
// start of the loop) are cut into k stretches of equally many completions,
// each stretch has its own rate, and the median of those is reported. A
// stall then costs the stretches it falls into, not the result. With too
// few completions for that it is the plain count over time.
func stretchRate(ends []float64, k int) float64 {
	s := sorted(ends)
	if len(s) == 0 {
		return 0
	}
	m := len(s) / max(k, 1)
	if k < 3 || m < 2 {
		return float64(len(s)) / s[len(s)-1]
	}
	rates := make([]float64, k)
	from := 0.0
	for j := range rates {
		to := s[(j+1)*m-1]
		rates[j] = float64(m) / (to - from)
		from = to
	}
	return median(rates)
}
