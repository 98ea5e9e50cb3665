package obs

import (
	"context"
	"encoding/binary"
	"sync"
	"time"
)

// Span is one timed operation inside a trace: it carries the trace ID /
// span ID / parent ID triple, wall-clock start and end, attributes, and
// an error status. Spans form a tree through context: StartSpan makes
// the new span a child of the context's current span, so the serve
// handler, the pipeline workers under it, and the codec calls under
// those nest without any layer knowing about the others.
//
// A nil *Span is a valid no-op receiver for every method, mirroring the
// nil-*Trace idiom: deep layers call StartSpan/SetAttrs/End without
// checking whether the request is traced at all.
//
// Two independent sinks consume a span. A span directly under the
// request — under the root span, or under no span when no tracer is
// configured — adds its duration to the context's Trace when it ends,
// so the request-completion log line lists the request's top-level
// stages even when no exporter is configured; nested spans (a codec
// call, a chunk) stay off it. Exporting — handing the finished span to a
// SpanExporter — requires that the span's trace is sampled and a Tracer
// with an exporter started the root.
type Span struct {
	name   string
	tc     TraceContext
	parent SpanID
	start  time.Time
	trace  *Trace // set only on a span directly under the request
	exp    SpanExporter
	root   bool

	mu     sync.Mutex
	attrs  []Attr
	status string
	ended  bool
}

// Attr is one span attribute: a string or int64 value under a key.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsInt selects the int64 value; otherwise Str is the value.
	IsInt bool
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Str: value} }

// Int builds an int64 attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Int: value, IsInt: true} }

// TraceContext returns the span's propagation context (zero when the
// span is a pure stage timer with no trace identity, or s is nil).
func (s *Span) TraceContext() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return s.tc
}

// SetAttrs appends attributes to the span. Safe for concurrent use.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SetError marks the span's status as failed with the error's message.
// A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.status = err.Error()
	s.mu.Unlock()
}

// End finishes the span: a span directly under the request adds its
// duration to the request trace and, when the trace is sampled and an
// exporter is attached, the finished span is handed to the exporter.
// End is idempotent; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	status := s.status
	s.mu.Unlock()
	s.trace.record(s.name, end.Sub(s.start))
	if s.exp != nil {
		_ = s.exp.ExportSpans([]SpanData{{
			TraceID: s.tc.TraceID,
			SpanID:  s.tc.SpanID,
			Parent:  s.parent,
			Name:    s.name,
			Start:   s.start,
			End:     end,
			Attrs:   attrs,
			Status:  status,
		}})
	}
}

// spanKey carries the current span; tcKey carries an explicitly
// injected trace context (a caller that has a traceparent but no live
// span, e.g. tcomp.WithTraceparent).
type (
	spanKey struct{}
	tcKey   struct{}
)

// ContextWithSpan returns a context whose current span is s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's current span, or nil. The nil
// return is safe to call methods on.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithTraceContext returns a context carrying an explicit trace context
// for propagation (TraceparentFromContext reads it when no live span is
// present). Used by clients that received a traceparent from elsewhere.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, tcKey{}, tc)
}

// TraceparentFromContext renders the context's trace position as a W3C
// traceparent header value: the current span's context when one is
// live, else an explicitly injected one (WithTraceContext), else "".
// This is what the tcomp.Client stamps on outgoing requests and what
// the jobs manager persists in the journal.
func TraceparentFromContext(ctx context.Context) string {
	if sp := SpanFromContext(ctx); sp != nil && sp.tc.Valid() {
		return FormatTraceparent(sp.tc)
	}
	if tc, ok := ctx.Value(tcKey{}).(TraceContext); ok && tc.Valid() {
		return FormatTraceparent(tc)
	}
	return ""
}

// StartSpan starts a child of the context's current span and makes it
// the context's current span. A span with nothing to record into — no
// trace identity to export under and not directly under a request
// Trace — is not started: StartSpan returns the context unchanged and
// a nil span, so instrumented layers cost nothing on untraced paths.
//
// When the context carries a Trace but no span (a request on a daemon
// with no tracer configured), the span still times its stage onto the
// Trace, without trace identity.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	var tr *Trace
	if parent == nil || parent.root {
		tr = TraceFrom(ctx)
	}
	traced := parent != nil && parent.tc.TraceID.Valid()
	if tr == nil && !traced {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now(), trace: tr}
	if traced {
		sp.tc = TraceContext{TraceID: parent.tc.TraceID, SpanID: NewSpanID(), Sampled: parent.tc.Sampled}
		sp.parent = parent.tc.SpanID
		sp.exp = parent.exp
	}
	return ContextWithSpan(ctx, sp), sp
}

// Tracer mints root spans and owns the sampling policy: parent-based
// (an inbound traceparent's sampled flag is honored, so a trace is
// sampled or dropped consistently across every hop) plus a
// deterministic ratio for new roots, derived from the trace ID itself —
// the same trace ID yields the same decision on every process.
type Tracer struct {
	exporter SpanExporter
	ratio    float64
}

// NewTracer returns a Tracer exporting sampled spans to exp. ratio in
// [0,1] is the fraction of new roots (no inbound trace context) to
// sample; values outside the range are clamped.
func NewTracer(exp SpanExporter, ratio float64) *Tracer {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return &Tracer{exporter: exp, ratio: ratio}
}

// ExporterStats returns the exporter's queue/volume accounting when the
// exporter keeps one (the OTLP exporter does; the plain writer does
// not). ok is false otherwise, and always on a nil tracer.
func (t *Tracer) ExporterStats() (ExporterStats, bool) {
	if t == nil {
		return nil, false
	}
	st, ok := t.exporter.(ExporterStats)
	return st, ok
}

// Shutdown flushes and stops the exporter; a no-op on a nil tracer.
func (t *Tracer) Shutdown(ctx context.Context) error {
	if t == nil || t.exporter == nil {
		return nil
	}
	return t.exporter.Shutdown(ctx)
}

// StartRoot starts a trace root span: the first span of this process's
// part of a trace. A valid parent (a parsed inbound traceparent) is
// joined — same trace ID, parent-based sampling decision — regardless
// of whether a tracer is configured, so trace context keeps propagating
// through an exporter-less daemon. Without a parent, a nil tracer
// returns (ctx, nil); a live tracer mints a fresh trace ID and applies
// its ratio sampler.
//
// A root span adds no duration to the request trace — the
// request-completion log line already carries the total — but the spans
// started directly under it do.
func (t *Tracer) StartRoot(ctx context.Context, name string, parent *TraceContext) (context.Context, *Span) {
	var tc TraceContext
	var parentID SpanID
	switch {
	case parent != nil && parent.Valid():
		tc = TraceContext{TraceID: parent.TraceID, SpanID: NewSpanID(), Sampled: parent.Sampled}
		parentID = parent.SpanID
	case t != nil:
		id := NewTraceID()
		tc = TraceContext{TraceID: id, SpanID: NewSpanID(), Sampled: sampleTraceID(id, t.ratio)}
	default:
		return ctx, nil
	}
	sp := &Span{name: name, tc: tc, parent: parentID, start: time.Now(), root: true}
	if t != nil && tc.Sampled {
		sp.exp = t.exporter
	}
	return ContextWithSpan(ctx, sp), sp
}

// sampleTraceID is the deterministic ratio sampler: the trace ID's
// first eight bytes, right-shifted to a 63-bit integer, compared to
// ratio scaled into the same domain. Every process holding the same
// ratio makes the same call for the same trace ID.
func sampleTraceID(id TraceID, ratio float64) bool {
	if ratio >= 1 {
		return true
	}
	if ratio <= 0 {
		return false
	}
	x := binary.BigEndian.Uint64(id[:8]) >> 1
	return x < uint64(ratio*float64(1<<63))
}
