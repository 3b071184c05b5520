package main

import (
	"reflect"
	"strings"
	"testing"
)

func testHot() []uint32 {
	hot := make([]uint32, hotSetSize)
	for i := range hot {
		hot[i] = uint32(3*i + 1)
	}
	return hot
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	const nodes, count = 5000, 600
	hot := testHot()
	for name, plan := range map[string]func(seed int64) []request{
		"lone": func(seed int64) []request { _, plan := lonePlan(seed, nodes, count, 64); return plan },
		"zipf": func(seed int64) []request { return zipfPlan(seed, nodes, hot, count) },
	} {
		a, b, other := paths(plan(7)), paths(plan(7)), paths(plan(8))
		if len(a) != count {
			t.Errorf("%s: %d requests, want %d", name, len(a), count)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different URL lists", name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: two seeds gave the same URL list", name)
		}
	}
}

func TestLonePlanSourcesAreAllDistinct(t *testing.T) {
	seen := map[uint32]bool{}
	algos := map[string]int{}
	warm, plan := lonePlan(3, 5000, 4000, 500)
	for _, q := range plan {
		if len(q.Sources) != 1 {
			t.Fatalf("lone request with %d sources", len(q.Sources))
		}
		if seen[q.Sources[0]] {
			t.Fatalf("source %d appears twice: the cache could hit", q.Sources[0])
		}
		seen[q.Sources[0]] = true
		algos[q.Algo]++
	}
	if algos["ppr"] != 2800 || algos["bfs"] != 1200 {
		t.Errorf("algorithm mix %v, want exactly 70/30 ppr/bfs", algos)
	}
	// The warm list fills the cache with sources the plan never asks for.
	filled := 0
	for _, q := range warm {
		for _, s := range q.Sources {
			if seen[s] {
				t.Fatalf("warm source %d is also in the plan or warmed twice: the cache could hit", s)
			}
			seen[s] = true
			filled++
		}
	}
	if filled != 500 {
		t.Errorf("warm list holds %d sources, want 500", filled)
	}
	if warm, plan := lonePlan(3, 100, 4000, 500); len(plan) != 100 || len(warm) != 0 {
		t.Errorf("a plan longer than the graph must stop at 100 distinct sources and warm none, got %d and %d", len(plan), len(warm))
	}
}

func TestZipfPlanMixAndColdSources(t *testing.T) {
	hot := testHot()
	isHot := map[uint32]bool{}
	for _, h := range hot {
		isHot[h] = true
	}
	var single, eight, cold int
	for _, q := range zipfPlan(11, 5000, hot, 10000) {
		switch {
		case len(q.Sources) == 8:
			eight++
			seen := map[uint32]bool{}
			for _, s := range q.Sources {
				if !isHot[s] || seen[s] {
					t.Fatalf("eight-source request %v: want eight distinct hot sources", q.Sources)
				}
				seen[s] = true
			}
		case isHot[q.Sources[0]]:
			single++
		default:
			cold++
		}
	}
	// Cold sources are drawn outside the hot set and the mix is dealt, not
	// drawn, so the three shares are exact.
	if single != 8000 || eight != 1000 || cold != 1000 {
		t.Errorf("mix single/eight/cold = %d/%d/%d, want 8000/1000/1000", single, eight, cold)
	}
	warmed := map[string]int{}
	for _, q := range warmPlan(hot) {
		for _, s := range q.Sources {
			if !isHot[s] {
				t.Fatalf("warm plan asks for %d, which is not hot", s)
			}
			warmed[q.Algo]++
		}
	}
	if warmed["ppr"] != len(hot) || warmed["bfs"] != len(hot) {
		t.Errorf("warm plan covers %v sources, want every hot source once per algorithm (%d)", warmed, len(hot))
	}
}

func TestRequestPathSpellsOutEveryParameter(t *testing.T) {
	ppr := request{Algo: "ppr", Sources: []uint32{4, 9}}.path()
	if ppr != "/v1/query?algo=ppr&sources=4,9&top=10&damping=0.85&tol=1e-06&iters=100" {
		t.Errorf("ppr path = %s", ppr)
	}
	bfs := request{Algo: "bfs", Sources: []uint32{4}}.path()
	if bfs != "/v1/query?algo=bfs&sources=4&top=10" || strings.Contains(bfs, "tol") {
		t.Errorf("bfs path = %s", bfs)
	}
}
