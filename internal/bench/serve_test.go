package bench

import (
	"math/rand"
	"strings"
	"testing"
)

func TestZipfRanksShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const hot, count = 64, 4000
	for _, s := range []float64{0, 0.5, 1.0, 1.5} {
		ranks := zipfRanks(rng, s, hot, count)
		counts := make([]int, hot)
		for _, r := range ranks {
			if r < 0 || r >= hot {
				t.Fatalf("s=%.1f: rank %d out of [0,%d)", s, r, hot)
			}
			counts[r]++
		}
		if s >= 1.0 && counts[0] <= counts[hot-1] {
			t.Errorf("s=%.1f: rank 0 drawn %d times, rank %d drawn %d — no head bias", s, counts[0], hot-1, counts[hot-1])
		}
		if s == 0 && counts[0] > 4*count/hot {
			t.Errorf("s=0: rank 0 drawn %d times, want roughly uniform (~%d)", counts[0], count/hot)
		}
	}
}

func TestServeStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replay study")
	}
	rows, err := ServeStudy(Options{Shrink: 64, Iters: 5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(serveSkews) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*len(serveSkews))
	}
	if err := ServeIdentity(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.P50Ms <= 0 || r.P99Ms < r.P50Ms || r.QPS <= 0 {
			t.Errorf("malformed row: %+v", r)
		}
		if r.Cache && r.HitPct == 0 {
			t.Errorf("cache-on row with zero steady-state hit rate: %+v", r)
		}
		if !r.Cache && (r.HitPct != 0 || r.WarmHitPct != 0) {
			t.Errorf("cache-off row reports hit rates: %+v", r)
		}
	}
	// The headline claim holds even at smoke scale: hits are orders of
	// magnitude cheaper than engine runs.
	if err := ServeCacheWins(rows); err != nil {
		t.Errorf("cache did not win at skew >= 1.0: %v", err)
	}
	out := FormatServeStudy(rows)
	if !strings.Contains(out, "p99 ms") {
		t.Errorf("formatted study missing expected sections:\n%s", out)
	}
}
