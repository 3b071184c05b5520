package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Spans of
// one operation (an engine run, an HTTP request) share Req; Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced path.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished interval and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children are
// counted once and children are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfShare returns, for every span called name, self time / duration.
func selfShare(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.dur() > 0 {
			out = append(out, float64(self[s.ID])/float64(s.dur()))
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
