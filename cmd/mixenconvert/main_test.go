package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixen"
)

// TestFlagValidation: every bad combination is a usage error before any
// work happens, instead of a silently ignored flag.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no_input", []string{"-out", "x.bin"}, "specify -in or -preset"},
		{"both_inputs", []string{"-in", "a.txt", "-preset", "wiki", "-out", "x.bin"}, "only one of"},
		{"no_output", []string{"-preset", "wiki"}, "nothing to do"},
		{"shrink_without_preset", []string{"-in", "a.txt", "-shrink", "4", "-out", "x.bin"}, "-shrink only applies"},
		{"autotune_without_partition", []string{"-preset", "wiki", "-out", "x.bin", "-autotune"}, "only apply to a -partition"},
		{"side_without_partition", []string{"-preset", "wiki", "-out", "x.bin", "-side", "64"}, "only apply to a -partition"},
		{"negative_side", []string{"-preset", "wiki", "-partition", "x.mixp", "-side", "-3"}, "negative"},
		{"autotune_with_side", []string{"-preset", "wiki", "-partition", "x.mixp", "-side", "512", "-autotune"}, "drop -side or -autotune"},
		{"positional_args", []string{"-preset", "wiki", "-out", "x.bin", "stray.txt"}, "positional"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want usage error", tc.args)
			}
			if _, ok := err.(usageError); !ok {
				t.Fatalf("run(%v) = %v, want a usageError", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// writeTestGraph emits a skewed random edge list to path.
func writeTestGraph(t *testing.T, path string, n, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var sb strings.Builder
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rng.Intn(n), rng.Intn(1+rng.Intn(n)))
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatalf("write graph: %v", err)
	}
}

// TestPartitionEndToEnd: text edge list -> `mixenconvert -partition` ->
// mixen.OpenPartition -> PageRank matches a build-from-edges engine
// bit-identically, including the -autotune baked-layout path.
func TestPartitionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.txt")
	writeTestGraph(t, graphPath, 400, 3000)

	variants := []struct {
		name  string
		extra []string
		cfg   mixen.Config
	}{
		{"plain", nil, mixen.Config{}},
		{"autotune", []string{"-autotune"}, mixen.Config{AutoTune: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			mixp := filepath.Join(dir, v.name+".mixp")
			args := append([]string{"-in", graphPath, "-partition", mixp}, v.extra...)
			var buf bytes.Buffer
			if err := run(args, &buf); err != nil {
				t.Fatalf("run(%v): %v\n%s", args, err, buf.String())
			}

			me, err := mixen.OpenPartition(mixp, mixen.Config{})
			if err != nil {
				t.Fatalf("OpenPartition: %v", err)
			}
			defer me.Close()

			// Reference engine built from the same edges with the same
			// baked layout decision.
			fh, err := os.Open(graphPath)
			if err != nil {
				t.Fatalf("open graph: %v", err)
			}
			g, err := mixen.ReadEdgeList(fh, 0)
			fh.Close()
			if err != nil {
				t.Fatalf("ReadEdgeList: %v", err)
			}
			// The tuner times candidate sides on the wall clock, so two runs
			// of it need not agree: the reference takes the side the file
			// baked instead of tuning a second time.
			refCfg := v.cfg
			if refCfg.AutoTune {
				refCfg = mixen.Config{Side: me.Meta().Side}
			}
			ref, err := mixen.New(g, refCfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if wantSide := ref.P.Side; me.Meta().Side != wantSide || wantSide <= 0 {
				t.Fatalf("baked side %d, want %d", me.Meta().Side, wantSide)
			}
			if me.Meta().AutoTuned != v.cfg.AutoTune {
				t.Fatalf("baked autotuned = %v, want %v", me.Meta().AutoTuned, v.cfg.AutoTune)
			}

			refRes, err := ref.Run(mixen.NewPageRankProgram(g, 0.85, 0, 20))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			mapRes, err := me.Run(mixen.NewPageRankProgramShared(g.NumNodes(), me.OutDegrees(), 0.85, 0, 20))
			if err != nil {
				t.Fatalf("mapped run: %v", err)
			}
			if len(refRes.Values) != len(mapRes.Values) {
				t.Fatalf("result length mismatch: %d vs %d", len(refRes.Values), len(mapRes.Values))
			}
			for i := range refRes.Values {
				if refRes.Values[i] != mapRes.Values[i] {
					t.Fatalf("PageRank diverges at %d: built=%v mapped=%v", i, refRes.Values[i], mapRes.Values[i])
				}
			}
		})
	}
}

// TestPartitionRejectsConflictingConfig: build-time knobs on a mapped
// partition are errors, not silent overrides.
func TestPartitionRejectsConflictingConfig(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.txt")
	writeTestGraph(t, graphPath, 100, 600)
	mixp := filepath.Join(dir, "g.mixp")
	var buf bytes.Buffer
	if err := run([]string{"-in", graphPath, "-partition", mixp}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, cfg := range []mixen.Config{
		{AutoTune: true},
		{Side: 12345},
	} {
		if me, err := mixen.OpenPartition(mixp, cfg); err == nil {
			me.Close()
			t.Fatalf("OpenPartition accepted build-time cfg %+v", cfg)
		}
	}
}
