package main

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"mixen"
)

// newPartitionPair builds the test graph twice: once as a regular
// graph-backed server and once written to a .mixp file and served mapped.
// Both must answer every query bit-identically.
func newPartitionPair(t *testing.T) (built, mapped *server) {
	t.Helper()
	g := testGraph(t)
	reg := mixen.NewMetricsRegistry()
	eng, err := mixen.New(g, mixen.Config{Collector: reg})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.mixp")
	if err := mixen.WritePartition(path, eng); err != nil {
		t.Fatalf("WritePartition: %v", err)
	}
	me, err := mixen.OpenPartition(path, mixen.Config{Collector: mixen.NewMetricsRegistry()})
	if err != nil {
		t.Fatalf("OpenPartition: %v", err)
	}
	bcfg := mixen.BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond}
	built = newServer(g, eng, reg, serverConfig{}, bcfg)
	mapped = newServerMapped(me, mixen.NewMetricsRegistry(), serverConfig{}, bcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = built.Shutdown(ctx)
		_ = mapped.Shutdown(ctx)
		_ = me.Close()
	})
	return built, mapped
}

// TestPartitionModeBitIdentical: every supported algorithm answers the
// same over a mapped partition as over the engine built from edges.
func TestPartitionModeBitIdentical(t *testing.T) {
	built, mapped := newPartitionPair(t)
	queries := []string{
		"/v1/query?algo=pagerank&iters=20&tol=0&top=10",
		"/v1/query?algo=ppr&source=3&iters=15&tol=0&top=10",
		"/v1/query?algo=ppr&sources=1,2,7&iters=10&tol=0&top=5",
		"/v1/query?algo=bfs&source=5&top=10",
		"/v1/query?algo=indegree&top=10",
		"/v1/query?algo=pagerank&iters=10&tol=0&nodes=0,1,2,3,4&top=0",
	}
	for _, q := range queries {
		want := decodeResponse(t, get(built, q))
		got := decodeResponse(t, get(mapped, q))
		if want.Nodes != got.Nodes || want.Edges != got.Edges {
			t.Fatalf("%s: graph scalars differ: built %d/%d, mapped %d/%d",
				q, want.Nodes, want.Edges, got.Nodes, got.Edges)
		}
		if len(want.Results) != len(got.Results) {
			t.Fatalf("%s: result count %d vs %d", q, len(want.Results), len(got.Results))
		}
		for i := range want.Results {
			w, g := want.Results[i], got.Results[i]
			if w.Iterations != g.Iterations || w.Delta != g.Delta {
				t.Fatalf("%s result %d: iterations/delta (%d, %v) vs (%d, %v)",
					q, i, w.Iterations, w.Delta, g.Iterations, g.Delta)
			}
			if len(w.Top) != len(g.Top) || len(w.Values) != len(g.Values) {
				t.Fatalf("%s result %d: shape mismatch", q, i)
			}
			for j := range w.Top {
				if w.Top[j] != g.Top[j] {
					t.Fatalf("%s result %d top %d: %+v vs %+v", q, i, j, w.Top[j], g.Top[j])
				}
			}
			for j := range w.Values {
				if w.Values[j] != g.Values[j] {
					t.Fatalf("%s result %d value %d: %+v vs %+v", q, i, j, w.Values[j], g.Values[j])
				}
			}
		}
	}
}

// TestHealthzPartitionFields: /healthz in partition mode reports the
// mapped file, build epoch and baked layout; graph mode omits the block.
func TestHealthzPartitionFields(t *testing.T) {
	built, mapped := newPartitionPair(t)

	rec := get(built, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("graph-mode healthz status %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz not JSON: %v (%s)", err, rec.Body.String())
	}
	if h.Status != "ok" || h.Partition != nil {
		t.Fatalf("graph-mode healthz = %+v, want ok with no partition block", h)
	}

	rec = get(mapped, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("partition-mode healthz status %d", rec.Code)
	}
	h = healthzResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz not JSON: %v (%s)", err, rec.Body.String())
	}
	if h.Status != "ok" || h.Partition == nil {
		t.Fatalf("partition-mode healthz = %+v, want a partition block", h)
	}
	if h.Partition.File == "" || h.Partition.Epoch == 0 || h.Partition.Side == 0 {
		t.Fatalf("partition block incomplete: %+v", h.Partition)
	}
}
