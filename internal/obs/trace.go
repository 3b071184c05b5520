// Request-scoped tracing: one obs.Trace follows a single query from HTTP
// admission through batcher fusion into the engine's per-iteration loop,
// recording timestamped spans. Completed traces land in a fixed-size
// lock-free ring buffer (TraceRing) that /debug/traces serves as JSON.
//
// The design goals, in priority order:
//
//  1. Zero overhead when off. A nil *Trace is a valid receiver everywhere
//     (every method is branch-and-return), WithTrace(ctx, nil) returns ctx
//     unchanged, and ContextTraces on an untraced context is one Value
//     lookup returning nil. The engine's zero-allocation steady state is
//     preserved bit for bit.
//  2. Head-based sampling. The Tracer decides at request arrival whether
//     this request records anything (1-in-N on the request id); unsampled
//     requests never allocate a Trace.
//  3. Bounded memory. Spans per trace are capped (maxTraceSpans, excess is
//     counted, not stored) and the ring holds a fixed number of completed
//     traces — steady-state tracing cannot grow the heap.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind names one stage of a request's lifecycle. The serving stack
// records: admission (waiting for an execution slot), queue (waiting in
// the batcher for companions), fuse (building the wide batch program),
// pre_phase / iteration / post_phase (the engine's SCGA phases, one
// iteration span per main-phase iteration), and demux (splitting the
// fused result back into per-query results).
type SpanKind string

// The span kinds recorded by the serving path.
const (
	SpanAdmission SpanKind = "admission"
	SpanQueue     SpanKind = "queue"
	SpanFuse      SpanKind = "fuse"
	SpanPrePhase  SpanKind = "pre_phase"
	SpanIteration SpanKind = "iteration"
	SpanPostPhase SpanKind = "post_phase"
	SpanDemux     SpanKind = "demux"
	// SpanCache covers the serving-layer result-cache lookup (hit, miss
	// or singleflight wait) for one query source.
	SpanCache SpanKind = "cache"
)

// maxTraceSpans caps the spans stored per trace. A 1000-iteration run
// would otherwise record 1000 iteration spans; past the cap the count of
// dropped spans is kept instead, bounding ring memory at
// ringSize × maxTraceSpans span records.
const maxTraceSpans = 256

// TraceSpan is one recorded stage: its kind, the iteration number for
// per-iteration spans (1-based, 0 otherwise), the start offset from the
// trace's start, and the duration.
type TraceSpan struct {
	Kind    SpanKind `json:"kind"`
	Iter    int      `json:"iter,omitempty"`
	StartNs int64    `json:"start_ns"`
	DurNs   int64    `json:"dur_ns"`
}

// Trace is one request's span record. A nil *Trace discards everything,
// which is the whole not-sampled/tracing-off path. Methods are safe for
// concurrent use: the handler, the batcher's flush goroutine and the
// engine coordinator may append spans from different goroutines.
type Trace struct {
	id    uint64
	op    string
	start time.Time

	mu        sync.Mutex
	spans     []TraceSpan
	dropped   int
	batchSize int
	outcome   string
	totalNs   int64
}

// ID returns the request id the trace was started with (0 for nil).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// AddSpan records a span of the given kind that began at start and ends
// now. No-op on a nil trace.
func (t *Trace) AddSpan(kind SpanKind, start time.Time) {
	if t == nil {
		return
	}
	t.addSpan(kind, 0, start, time.Now())
}

// AddSpanIter records an iteration-scoped span (iter is 1-based) covering
// [start, end). No-op on a nil trace.
func (t *Trace) AddSpanIter(kind SpanKind, iter int, start, end time.Time) {
	if t == nil {
		return
	}
	t.addSpan(kind, iter, start, end)
}

func (t *Trace) addSpan(kind SpanKind, iter int, start, end time.Time) {
	sp := TraceSpan{
		Kind:    kind,
		Iter:    iter,
		StartNs: start.Sub(t.start).Nanoseconds(),
		DurNs:   end.Sub(start).Nanoseconds(),
	}
	t.mu.Lock()
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// SetBatchSize records how many queries shared the trace's fused run.
// No-op on a nil trace.
func (t *Trace) SetBatchSize(k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.batchSize = k
	t.mu.Unlock()
}

// TraceSnapshot is the JSON view of one completed trace, served by
// /debug/traces (newest first).
type TraceSnapshot struct {
	ID           uint64      `json:"id"`
	Op           string      `json:"op"`
	Start        time.Time   `json:"start"`
	TotalNs      int64       `json:"total_ns"`
	Outcome      string      `json:"outcome"`
	BatchSize    int         `json:"batch_size,omitempty"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
	Spans        []TraceSpan `json:"spans"`
}

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	s := TraceSnapshot{
		ID:           t.id,
		Op:           t.op,
		Start:        t.start,
		TotalNs:      t.totalNs,
		Outcome:      t.outcome,
		BatchSize:    t.batchSize,
		DroppedSpans: t.dropped,
		Spans:        append([]TraceSpan(nil), t.spans...),
	}
	t.mu.Unlock()
	return s
}

// TraceRing is a fixed-size lock-free buffer of completed traces: writers
// claim a slot with one atomic add and store the trace with one atomic
// pointer store, overwriting the oldest entry once full. Snapshot reads
// are wait-free and never block writers.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewTraceRing returns a ring holding the size most recent completed
// traces (size is clamped to >= 1).
func NewTraceRing(size int) *TraceRing {
	if size < 1 {
		size = 1
	}
	return &TraceRing{slots: make([]atomic.Pointer[Trace], size)}
}

// Len returns the ring's capacity (0 for nil).
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

func (r *TraceRing) put(t *Trace) {
	if r == nil || t == nil {
		return
	}
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(t)
}

// Snapshot copies out every completed trace currently in the ring, newest
// first. Safe to call concurrently with writers; a trace being overwritten
// during the scan is either the old or the new value, never torn.
func (r *TraceRing) Snapshot() []TraceSnapshot {
	if r == nil {
		return nil
	}
	out := make([]TraceSnapshot, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t.snapshot())
		}
	}
	// Insertion-sort by id descending: the ring is small and mostly
	// ordered already (ids are assigned monotonically).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID > out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Tracer mints request ids and applies head-based sampling: Start returns
// a recording *Trace for one in every sample requests (by id), nil for the
// rest. NextID is always available — request ids exist (for access logs,
// error correlation) even when tracing is off.
type Tracer struct {
	sample uint64
	seq    atomic.Uint64
	ring   *TraceRing
}

// NewTracer returns a Tracer keeping ringSize completed traces and
// sampling one in every sample requests. sample <= 0 disables tracing
// (Start always returns nil); sample == 1 traces every request.
func NewTracer(ringSize, sample int) *Tracer {
	if sample < 0 {
		sample = 0
	}
	return &Tracer{sample: uint64(sample), ring: NewTraceRing(ringSize)}
}

// NextID returns the next request id (monotonic from 1). Safe on a nil
// Tracer (returns 0).
func (tr *Tracer) NextID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.seq.Add(1)
}

// Enabled reports whether any request can be sampled.
func (tr *Tracer) Enabled() bool { return tr != nil && tr.sample > 0 }

// Start begins a trace for request id performing op, or returns nil when
// the request is not sampled (callers pass the nil through — every
// downstream method accepts it).
func (tr *Tracer) Start(id uint64, op string) *Trace {
	if tr == nil || tr.sample == 0 || id%tr.sample != 0 {
		return nil
	}
	return &Trace{id: id, op: op, start: time.Now()}
}

// Finish completes t with the given outcome ("ok", "deadline", "shed",
// ...) and publishes it to the ring. No-op when t is nil.
func (tr *Tracer) Finish(t *Trace, outcome string) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	t.outcome = outcome
	t.totalNs = time.Since(t.start).Nanoseconds()
	t.mu.Unlock()
	tr.ring.put(t)
}

// Ring exposes the completed-trace buffer (for RegisterTraceHandler).
func (tr *Tracer) Ring() *TraceRing {
	if tr == nil {
		return nil
	}
	return tr.ring
}

// traceCtxKey carries []*Trace through a context. A slice — not a single
// trace — because a fused batch run executes on behalf of every member's
// trace at once.
type traceCtxKey struct{}

// WithTrace attaches t to ctx. A nil t returns ctx unchanged, so the
// not-sampled path allocates nothing.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return WithTraces(ctx, []*Trace{t})
}

// WithTraces attaches a set of traces (one per fused batch member) to ctx.
// An empty set returns ctx unchanged.
func WithTraces(ctx context.Context, ts []*Trace) context.Context {
	if len(ts) == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, ts)
}

// ContextTraces returns the traces attached to ctx (nil when untraced —
// the common case, costing one Value lookup and no allocation).
func ContextTraces(ctx context.Context) []*Trace {
	ts, _ := ctx.Value(traceCtxKey{}).([]*Trace)
	return ts
}

// TraceFromContext returns the single trace attached to ctx, or nil. When
// several are attached (inside a fused run) it returns the first.
func TraceFromContext(ctx context.Context) *Trace {
	if ts := ContextTraces(ctx); len(ts) > 0 {
		return ts[0]
	}
	return nil
}
