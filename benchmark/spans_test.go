package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two overlapping children cover [10,60) once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A grandchild shortens its parent's self time, not the root's.
		{ID: 4, Parent: 2, Name: "a.inner", Start: 20, End: 30},
		// A child that sticks out of its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130},
		// A child wholly inside an earlier sibling adds nothing.
		{ID: 6, Parent: 1, Name: "shadowed", Start: 35, End: 40},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 30, 4: 10, 5: 40, 6: 5} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	share := selfShare(spans, "request")
	if len(share) != 1 || share[0] != 0.4 {
		t.Errorf("selfShare = %v, want [0.4]", share)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", 0, 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer must hold no spans")
	}
}

func TestTracerParentsAndFile(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	parent := tr.add("run", 0, 7, t0, t0.Add(10*time.Millisecond))
	tr.add("core.main", parent, 7, t0.Add(time.Millisecond), t0.Add(9*time.Millisecond))
	if got := tr.snapshot(); len(got) != 2 || got[1].Parent != parent || got[1].dur() != int64(8*time.Millisecond) {
		t.Errorf("spans = %+v, want core.main of 8ms under span %d", got, parent)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"parent":1`) || !strings.Contains(lines[1], `"req":7`) {
		t.Errorf("spans.jsonl = %q", raw)
	}
}
