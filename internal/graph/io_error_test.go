package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failingWriter errors after n bytes.
type failingWriter struct {
	remaining int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, errDiskFull
	}
	w.remaining -= len(p)
	return len(p), nil
}

func TestWriteBinaryPropagatesErrors(t *testing.T) {
	g := tinyGraph(t)
	for _, budget := range []int{0, 4, 20, 60} {
		if err := g.WriteBinary(&failingWriter{remaining: budget}); err == nil {
			t.Errorf("budget %d: expected write error", budget)
		}
	}
}

func TestWriteEdgeListPropagatesErrors(t *testing.T) {
	g := tinyGraph(t)
	if err := g.WriteEdgeList(&failingWriter{remaining: 3}); err == nil {
		t.Error("expected write error")
	}
}

func TestReadBinaryRejectsImplausibleSizes(t *testing.T) {
	// Hand-craft a header with an absurd node count.
	var buf bytes.Buffer
	buf.Write([]byte{0x45, 0x58, 0x49, 0x4d})                         // magic little-endian
	buf.Write([]byte{1, 0, 0, 0})                                     // version
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // n
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})                         // m
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("expected error for implausible node count")
	}
}

func TestReadBinaryRejectsWrongVersion(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt version field
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected version error")
	}
}

func TestReadBinaryRejectsCorruptPtr(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the first pointer entry (offset 24 = 4+4+8+8) so validation
	// fires (ptr[0] != 0).
	raw[24] = 0xff
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected validation error for corrupt ptr")
	}
}

func TestReadEdgeListHugeLineRejected(t *testing.T) {
	// A single line longer than the 1 MB scanner budget must error, not
	// hang or silently truncate.
	line := strings.Repeat("1", 1<<21)
	if _, err := ReadEdgeList(strings.NewReader(line), 0); err == nil {
		t.Fatal("expected scanner error for oversized line")
	}
}

// A file whose rows are not ascending must be refused with the row named:
// HasEdge, block and filter all rely on sorted rows and none re-sorts.
func TestReadBinaryRejectsDescendingRow(t *testing.T) {
	g := &Graph{OutPtr: []int64{0, 2, 4, 4, 4}, OutIdx: []Node{1, 3, 2, 0}}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "row 1 not ascending") {
		t.Fatalf("descending row 1: got %v, want an error naming the row", err)
	}
	g.InPtr, g.InIdx = transposeHalf(g.OutPtr, g.OutIdx)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a descending row")
	}
	// Multi-edges are equal neighbours, not a descent.
	if _, err := FromCSR([]int64{0, 3, 3}, []Node{1, 1, 1}); err != nil {
		t.Fatalf("multi-edge row refused: %v", err)
	}
}
