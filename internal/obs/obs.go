// Package obs is the study pipeline's observability layer: a span tracer,
// a metrics registry, and exporters, all stdlib-only.
//
// The paper's argument is about attributing time — which machine resource
// explains which fraction of an application's runtime — and this package
// applies the same discipline to the reproduction pipeline itself. Every
// phase of a study run (probe machine, observe cell, trace app, convolve
// metric, balanced regression) becomes a span; the worker pool reports
// occupancy and queue wait through the registry; a run manifest records
// the environment so benchmark JSON stays attributable.
//
// Everything here is built to disappear when unused: the nil *Obs, nil
// *Tracer, nil *Span, and nil metric instruments are all valid no-op
// receivers, and the disabled path allocates nothing — instrumented hot
// loops cost a pointer check when tracing is off, so study output stays
// byte-identical and benchmark numbers unaffected.
//
// Span parent/child structure travels through context.Context: StartSpan
// derives a child of the context's active span, or a root span when the
// context carries only a Tracer (via (*Obs).Inject). Spans are
// goroutine-safe — concurrent workers each derive their own child from a
// shared parent context — and carry nanosecond monotonic timestamps
// measured against the tracer's epoch.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Obs bundles the two collection surfaces a run threads through the
// pipeline. A nil *Obs disables both with zero overhead.
type Obs struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New returns an Obs with a fresh tracer and registry.
func New() *Obs {
	return &Obs{Tracer: NewTracer(), Metrics: NewRegistry()}
}

// Meter returns the registry, or nil when o is nil — safe to chain into
// the registry's nil-safe instrument constructors.
func (o *Obs) Meter() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// obsKey carries the *Obs through a context.
type obsKey struct{}

// spanKey carries the active *Span through a context.
type spanKey struct{}

// obsCtx attaches an Obs to a context without the allocation profile of
// context.WithValue's key comparisons on the hot lookup path.
type obsCtx struct {
	context.Context
	o *Obs
}

// Value returns the attached Obs for obsKey and defers everything else.
func (c *obsCtx) Value(key any) any {
	if _, ok := key.(obsKey); ok {
		return c.o
	}
	return c.Context.Value(key)
}

// spanCtx attaches the active span to a context.
type spanCtx struct {
	context.Context
	s *Span
}

// Value returns the active span for spanKey and defers everything else.
func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanKey); ok {
		return c.s
	}
	return c.Context.Value(key)
}

// Inject returns a context carrying o. A nil receiver returns ctx
// unchanged, so the disabled path allocates nothing.
func (o *Obs) Inject(ctx context.Context) context.Context {
	if o == nil {
		return ctx
	}
	return &obsCtx{Context: ctx, o: o}
}

// From returns the Obs carried by ctx, or nil.
func From(ctx context.Context) *Obs {
	o, _ := ctx.Value(obsKey{}).(*Obs)
	return o
}

// SpanFrom returns the context's active span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a span named name as a child of the context's active
// span (or as a root span of the context's tracer) and returns a derived
// context carrying it. When the context carries no tracer it returns
// (ctx, nil) without allocating; the nil *Span's End and Annotate are
// no-ops, so call sites stay unconditional.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	var t *Tracer
	if parent != nil {
		t = parent.tracer
	} else if o := From(ctx); o != nil {
		t = o.Tracer
	}
	if t == nil {
		return ctx, nil
	}
	s := t.start(name, parent)
	return &spanCtx{Context: ctx, s: s}, s
}

// SpanRecord is one finished span, as exported to JSONL and aggregated
// into phase statistics.
type SpanRecord struct {
	// ID is the span's tracer-unique identifier (1-based).
	ID uint64 `json:"id"`
	// Parent is the parent span's ID, or 0 for a root span.
	Parent uint64 `json:"parent,omitempty"`
	// Trace is the W3C trace ID of the request this span belongs to,
	// inherited from the root span started by StartRequestSpan. Batch
	// spans (plain StartSpan roots) have no trace and omit the field, so
	// batch span logs are byte-identical to pre-tracing ones.
	Trace string `json:"trace,omitempty"`
	// Name is the phase name passed to StartSpan.
	Name string `json:"name"`
	// Path is the slash-joined name chain from the root span, e.g.
	// "study/observe/exec"; phase aggregation groups by it.
	Path string `json:"path"`
	// StartNs is the span's start, in monotonic nanoseconds since the
	// tracer's epoch.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
	// Attrs holds the span's annotations, if any.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one in-flight phase. Create with StartSpan, finish with End.
type Span struct {
	tracer  *Tracer
	id      uint64
	parent  uint64
	trace   string
	name    string
	path    string
	startNs int64

	ended atomic.Bool
	mu    sync.Mutex
	attrs map[string]string // guarded by mu
}

// TraceID returns the span's trace ID, or "" for a nil span or a batch
// span started outside a request.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// Attr returns the current value of one annotation, or "". Nil-safe.
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// Traceparent renders the span as an outgoing W3C traceparent header
// value, or "" when the span carries no trace.
func (s *Span) Traceparent() string {
	if s == nil || s.trace == "" {
		return ""
	}
	return FormatTraceparent(s.trace, s.id)
}

// Annotate attaches a key/value detail to the span (machine name, cell
// identity). Nil-safe; later values for the same key win. Callers
// computing an expensive value should guard on s != nil first so the
// disabled path does not pay for the formatting.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 2)
	}
	s.attrs[key] = value
}

// End finishes the span and publishes its record to the tracer. Nil-safe
// and idempotent: only the first End records.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Trace:   s.trace,
		Name:    s.name,
		Path:    s.path,
		StartNs: s.startNs,
		DurNs:   s.tracer.now() - s.startNs,
	}
	s.mu.Lock()
	rec.Attrs = s.attrs
	s.mu.Unlock()
	s.tracer.finish(rec)
}

// Tracer collects spans. Goroutine-safe: any number of workers may start
// and end spans concurrently.
//
// By default finished spans are buffered in memory for Records() — the
// batch mode the study harness uses, where the log is dumped once at
// exit. A long-running server instead calls SetSink to stream each span
// out as it finishes (write-on-finish), in which case nothing is
// buffered and the tracer's memory stays bounded for the life of the
// process.
type Tracer struct {
	epoch time.Time
	next  atomic.Uint64

	sinkErrs atomic.Int64

	mu       sync.Mutex
	sink     SpanSink     // guarded by mu
	finished []SpanRecord // guarded by mu
}

// SpanSink receives finished spans as they end. Implementations must be
// goroutine-safe; JSONLFile and Discard both qualify.
type SpanSink interface {
	WriteSpan(SpanRecord) error
}

// Discard is a SpanSink that drops every span. A server that wants
// request trace IDs (for access-log joins and traceparent echoes) but no
// span log installs it so the tracer never buffers.
type Discard struct{}

// WriteSpan drops the record.
func (Discard) WriteSpan(SpanRecord) error { return nil }

// NewTracer returns a tracer whose timestamps count from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetSink switches the tracer to streaming mode: finished spans go to s
// instead of the in-memory buffer (nil restores buffering). Install the
// sink before spans start finishing; records already buffered stay
// buffered. Nil-safe on the receiver.
func (t *Tracer) SetSink(s SpanSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// SinkErrors reports how many finished spans the sink failed to write
// (each was dropped); nil reads 0.
func (t *Tracer) SinkErrors() int64 {
	if t == nil {
		return 0
	}
	return t.sinkErrs.Load()
}

// now returns monotonic nanoseconds since the tracer's epoch (time.Since
// uses the runtime's monotonic clock).
func (t *Tracer) now() int64 {
	return time.Since(t.epoch).Nanoseconds()
}

// start creates a span; parent may be nil for a root span.
func (t *Tracer) start(name string, parent *Span) *Span {
	s := &Span{
		tracer:  t,
		id:      t.next.Add(1),
		name:    name,
		path:    name,
		startNs: t.now(),
	}
	if parent != nil {
		s.parent = parent.id
		s.trace = parent.trace
		s.path = parent.path + "/" + name
	}
	return s
}

// finish streams one finished record to the sink, or buffers it.
func (t *Tracer) finish(rec SpanRecord) {
	t.mu.Lock()
	sink := t.sink
	if sink == nil {
		t.finished = append(t.finished, rec)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	// The sink serializes internally; writing outside t.mu keeps slow
	// exports from stalling concurrent span starts/ends.
	if err := sink.WriteSpan(rec); err != nil {
		t.sinkErrs.Add(1)
	}
}

// Len returns how many spans have finished so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.finished)
}

// Records returns a snapshot of the finished spans, ordered by start time
// (ties broken by ID) so exports are deterministic for a deterministic
// run structure.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.finished))
	copy(out, t.finished)
	t.mu.Unlock()
	sortRecords(out)
	return out
}
