// Package obsv is the observability substrate: low-overhead timing spans
// threaded through the forward kernels (per-layer traces in nn.Infer /
// nn.InferBatch), the training step and its collectives (per-rank phase
// events on a Timeline, the only clock a training step has), and the
// gateway's proxy path (per-backend request attribution) — the measurement
// layer the paper grounds every scaling claim in (its Table-I per-layer
// operator timings and §V studies), grown into a serving-time trace
// surface (/stats "layers" section, GET /v1/trace) plus the
// machine-readable benchmark trajectory (bench.go: BENCH_<area>.json
// reports and the >threshold regression compare behind
// cosmoflow-benchdiff).
//
// Tracing is opt-in and nil-guarded: every instrumented hot path keeps its
// untimed loop when no trace is attached, so the disabled cost is one
// pointer check per forward pass, not per-layer clock reads.
package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span accumulates observations of one named operation. All fields are
// updated without locks — Observe is safe from any number of goroutines
// (replicas share their model's spans) — and Snapshot tolerates the
// at-most-one-observation tear that entails, like serve.Metrics.
type Span struct {
	name  string
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// NewSpan returns a standalone span (Recorder-managed spans come from
// Recorder.Span).
func NewSpan(name string) *Span { return &Span{name: name} }

// Name returns the span's label.
func (s *Span) Name() string { return s.name }

// Observe records one completed operation of duration d.
func (s *Span) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.total.Add(ns)
	for {
		old := s.max.Load()
		if ns <= old || s.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Reset zeroes the counters (e.g. to discard warm-up observations).
func (s *Span) Reset() {
	s.count.Store(0)
	s.total.Store(0)
	s.max.Store(0)
}

// Stat snapshots the span's counters.
func (s *Span) Stat() SpanStat {
	st := SpanStat{
		Name:    s.name,
		Count:   s.count.Load(),
		TotalMs: float64(s.total.Load()) / 1e6,
		MaxMs:   float64(s.max.Load()) / 1e6,
	}
	if st.Count > 0 {
		st.AvgMs = st.TotalMs / float64(st.Count)
	}
	return st
}

// SpanStat is a span's point-in-time snapshot; it is part of the v1 wire
// surface (internal/serve/api aliases it), hence the JSON tags.
type SpanStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	AvgMs   float64 `json:"avg_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// Recorder is a registry of named spans for callers whose span set is not
// known up front (the gateway's per-backend spans, a Timeline's per-phase
// spans). Hot paths should resolve their *Span once and hold it; Span
// takes a lock.
type Recorder struct {
	mu     sync.Mutex
	byName map[string]*Span
	order  []*Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byName: make(map[string]*Span)}
}

// Span returns the named span, creating it on first use.
func (r *Recorder) Span(name string) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byName[name]; ok {
		return s
	}
	s := &Span{name: name}
	r.byName[name] = s
	r.order = append(r.order, s)
	return s
}

// Snapshot returns every span's stats in creation order.
func (r *Recorder) Snapshot() []SpanStat {
	r.mu.Lock()
	spans := make([]*Span, len(r.order))
	copy(spans, r.order)
	r.mu.Unlock()
	out := make([]SpanStat, len(spans))
	for i, s := range spans {
		out[i] = s.Stat()
	}
	return out
}

// ForwardTrace is the per-layer breakdown of a network's forward pass: one
// span per layer (index-aligned with the layer stack) plus a whole-forward
// span, the serving-time analogue of the paper's Table-I operator timings.
// Replicas cloned from a traced network share the same ForwardTrace, so the
// snapshot aggregates across the whole replica pool.
type ForwardTrace struct {
	Forward Span
	Layers  []*Span
}

// NewForwardTrace builds a trace for a layer stack with the given names.
func NewForwardTrace(layerNames []string) *ForwardTrace {
	t := &ForwardTrace{
		Forward: Span{name: "forward"},
		Layers:  make([]*Span, len(layerNames)),
	}
	for i, n := range layerNames {
		t.Layers[i] = &Span{name: n}
	}
	return t
}

// Reset zeroes every span (used to drop replica warm-up passes).
func (t *ForwardTrace) Reset() {
	t.Forward.Reset()
	for _, s := range t.Layers {
		s.Reset()
	}
}

// Snapshot returns the whole-forward stat plus the per-layer stats in
// layer order.
func (t *ForwardTrace) Snapshot() (SpanStat, []SpanStat) {
	layers := make([]SpanStat, len(t.Layers))
	for i, s := range t.Layers {
		layers[i] = s.Stat()
	}
	return t.Forward.Stat(), layers
}

// RequestTrace is one request's phase attribution — where its wall time
// went (queue wait, upstream round trip, gather) — keyed by the request id
// the serving tier already propagates (X-Request-Id). Part of the v1 wire
// surface via internal/serve/api.
type RequestTrace struct {
	RequestID string             `json:"request_id"`
	Model     string             `json:"model,omitempty"`
	Backend   string             `json:"backend,omitempty"`
	TotalMs   float64            `json:"total_ms"`
	PhasesMs  map[string]float64 `json:"phases_ms,omitempty"`
}

// RequestLog is a fixed-size ring of recent request traces: enough to
// answer "where did request X's time go" for the recent past without
// unbounded memory.
type RequestLog struct {
	mu   sync.Mutex
	buf  []RequestTrace
	next int
	n    int
}

// NewRequestLog returns a ring holding the most recent size traces.
func NewRequestLog(size int) *RequestLog {
	if size < 1 {
		size = 1
	}
	return &RequestLog{buf: make([]RequestTrace, size)}
}

// Add records one completed request, evicting the oldest when full.
func (l *RequestLog) Add(rt RequestTrace) {
	l.mu.Lock()
	l.buf[l.next] = rt
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot returns up to max traces, most recent first (max <= 0 returns
// everything retained).
func (l *RequestLog) Snapshot(max int) []RequestTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]RequestTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}
