package obs

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"testing"
	"time"
)

// collectExporter records exported spans for assertions.
type collectExporter struct {
	mu    sync.Mutex
	spans []SpanData
}

func (c *collectExporter) ExportSpans(spans []SpanData) error {
	c.mu.Lock()
	c.spans = append(c.spans, spans...)
	c.mu.Unlock()
	return nil
}

func (c *collectExporter) Shutdown(context.Context) error { return nil }

func (c *collectExporter) all() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

func TestStartSpanOutsideTraceIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("expected nil span outside any trace, got %+v", sp)
	}
	// The nil span must be safe to use.
	sp.SetAttrs(String("k", "v"))
	sp.SetError(errors.New("boom"))
	sp.End()
	if got := TraceparentFromContext(ctx); got != "" {
		t.Fatalf("traceparent from untraced ctx = %q", got)
	}
}

func TestSpanTreeExports(t *testing.T) {
	exp := &collectExporter{}
	tr := NewTracer(exp, 1)
	ctx := WithTrace(context.Background(), NewTrace(""))
	ctx, root := tr.StartRoot(ctx, "root", nil)
	if !root.TraceContext().Valid() {
		t.Fatal("root span has no trace context")
	}
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.SetError(errors.New("boom"))
	grand.End()
	child.End()
	root.SetAttrs(String("path", "/v1/compress"), Int("status", 200))
	root.End()

	spans := exp.all()
	if len(spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != root.TraceContext().TraceID {
			t.Errorf("span %s trace ID %s != root %s", s.Name, s.TraceID, root.TraceContext().TraceID)
		}
		if s.End.Before(s.Start) {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if byName["child"].Parent != root.TraceContext().SpanID {
		t.Error("child's parent is not the root span")
	}
	if byName["grandchild"].Parent != byName["child"].SpanID {
		t.Error("grandchild's parent is not the child span")
	}
	if byName["grandchild"].Status != "boom" {
		t.Errorf("grandchild status %q, want boom", byName["grandchild"].Status)
	}
	if byName["root"].Parent.Valid() {
		t.Error("root span should have no parent")
	}
}

func TestStartRootJoinsParent(t *testing.T) {
	exp := &collectExporter{}
	tr := NewTracer(exp, 0) // ratio 0: only parent-sampled traces export
	parent := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	_, sp := tr.StartRoot(context.Background(), "joined", &parent)
	if sp.TraceContext().TraceID != parent.TraceID {
		t.Fatal("joined root did not inherit the trace ID")
	}
	sp.End()
	spans := exp.all()
	if len(spans) != 1 || spans[0].Parent != parent.SpanID {
		t.Fatalf("joined root not exported under the remote parent: %+v", spans)
	}

	// An unsampled parent suppresses export on every hop.
	parent.Sampled = false
	_, sp = tr.StartRoot(context.Background(), "unsampled", &parent)
	sp.End()
	if got := len(exp.all()); got != 1 {
		t.Fatalf("unsampled trace exported a span (total %d)", got)
	}

	// No parent + nil tracer: propagation machinery stays inert.
	var nilTracer *Tracer
	ctx, sp := nilTracer.StartRoot(context.Background(), "none", nil)
	if sp != nil {
		t.Fatal("nil tracer with no parent minted a span")
	}
	// But a parent still propagates through an exporter-less daemon.
	parent.Sampled = true
	ctx, sp = nilTracer.StartRoot(context.Background(), "relay", &parent)
	if sp == nil || !sp.TraceContext().Valid() {
		t.Fatal("nil tracer dropped inbound trace context")
	}
	if got := TraceparentFromContext(ctx); got == "" {
		t.Fatal("no traceparent to propagate downstream")
	}
	sp.End() // no exporter: must not panic
}

func TestSamplingRatio(t *testing.T) {
	sampled := 0
	const n = 2000
	for i := 0; i < n; i++ {
		id := NewTraceID()
		if sampleTraceID(id, 0.25) {
			sampled++
		}
		if !sampleTraceID(id, 1) {
			t.Fatal("ratio 1 must sample everything")
		}
		if sampleTraceID(id, 0) {
			t.Fatal("ratio 0 must sample nothing")
		}
		// Determinism: same ID, same answer.
		if sampleTraceID(id, 0.25) != sampleTraceID(id, 0.25) {
			t.Fatal("sampler is not deterministic")
		}
	}
	// 25% of 2000 with generous slack: binomial σ ≈ 19, allow ±6σ.
	if sampled < 380 || sampled > 620 {
		t.Fatalf("ratio 0.25 sampled %d/%d", sampled, n)
	}
}

// TestConcurrentSpans exercises concurrent span creation, attribute
// writes, and ends under one trace; run with -race this is the
// regression test for span/trace locking.
func TestConcurrentSpans(t *testing.T) {
	exp := &collectExporter{}
	tr := NewTracer(exp, 1)
	trace := NewTrace("")
	ctx := WithTrace(context.Background(), trace)
	ctx, root := tr.StartRoot(ctx, "root", nil)

	var wg sync.WaitGroup
	const workers = 16
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, sp := StartSpan(ctx, "worker")
			sp.SetAttrs(Int("index", int64(i)))
			for j := 0; j < 8; j++ {
				_, inner := StartSpan(cctx, "inner")
				inner.SetAttrs(String("j", "x"))
				inner.End()
			}
			root.SetAttrs(Int("racy", int64(i)))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()

	spans := exp.all()
	if want := 1 + workers + workers*8; len(spans) != want {
		t.Fatalf("exported %d spans, want %d", len(spans), want)
	}
	for _, s := range spans {
		if s.TraceID != root.TraceContext().TraceID {
			t.Fatalf("span %s escaped the trace", s.Name)
		}
	}
	// The 16 "worker" spans directly under the root aggregate into one
	// log-line attribute without duplicate keys, summing exactly the
	// durations they exported; the nested inner spans stay off it.
	attrs := trace.StageAttrs()
	if len(attrs) != 1 {
		t.Fatalf("StageAttrs = %v, want a single aggregated worker entry", attrs)
	}
	a := attrs[0].(slog.Attr)
	if a.Key != "worker" {
		t.Fatalf("aggregated key %q, want worker", a.Key)
	}
	var sum time.Duration
	for _, s := range spans {
		if s.Name == "worker" {
			sum += s.End.Sub(s.Start)
		}
	}
	if a.Value.Duration() != sum {
		t.Fatalf("worker attribute %v, want the %d exported worker spans' sum %v", a.Value.Duration(), workers, sum)
	}
}

// TestStageAttrsAggregatesDuplicates: spans directly under the root
// that share a name sum into one attribute, and the attributes come in
// the order each name first ended — not the order spans started.
func TestStageAttrsAggregatesDuplicates(t *testing.T) {
	exp := &collectExporter{}
	tracer := NewTracer(exp, 1)
	tr := NewTrace("r1")
	ctx, root := tracer.StartRoot(WithTrace(context.Background(), tr), "root", nil)
	_, first := StartSpan(ctx, "compress")
	_, read := StartSpan(ctx, "read")
	read.End()
	first.End()
	cctx, second := StartSpan(ctx, "compress")
	_, nested := StartSpan(cctx, "compress golomb")
	nested.End()
	second.End()
	_, write := StartSpan(ctx, "write")
	write.End()
	root.End()

	attrs := tr.StageAttrs()
	if len(attrs) != 3 {
		t.Fatalf("got %d attrs, want 3 (duplicates aggregated, nested span left out): %v", len(attrs), attrs)
	}
	keys := map[string]time.Duration{}
	var order []string
	for _, a := range attrs {
		at := a.(slog.Attr)
		if _, dup := keys[at.Key]; dup {
			t.Fatalf("duplicate slog key %q", at.Key)
		}
		keys[at.Key] = at.Value.Duration()
		order = append(order, at.Key)
	}
	exported := map[string]time.Duration{}
	for _, s := range exp.all() {
		exported[s.Name] += s.End.Sub(s.Start)
	}
	if keys["compress"] != exported["compress"] {
		t.Fatalf("compress aggregated to %v, want the two spans' sum %v", keys["compress"], exported["compress"])
	}
	if order[0] != "read" || order[1] != "compress" || order[2] != "write" {
		t.Fatalf("first-end order lost: %v", order)
	}
}

// TestSpanEndIdempotent: a span that Ends twice exports once.
func TestSpanEndIdempotent(t *testing.T) {
	exp := &collectExporter{}
	tr := NewTracer(exp, 1)
	_, sp := tr.StartRoot(context.Background(), "once", nil)
	sp.End()
	sp.End()
	if got := len(exp.all()); got != 1 {
		t.Fatalf("double End exported %d spans", got)
	}
}

// TestStageOnlySpan: with a Trace but no tracer, StartSpan still times
// the request's stages, without minting trace identity; a span nested
// under such a stage has nothing to record into and is not started.
func TestStageOnlySpan(t *testing.T) {
	trace := NewTrace("")
	ctx := WithTrace(context.Background(), trace)
	rctx, sp := StartSpan(ctx, "read")
	if sp == nil {
		t.Fatal("expected a stage-only span")
	}
	if sp.TraceContext().Valid() {
		t.Fatal("stage-only span should have no trace identity")
	}
	if _, nested := StartSpan(rctx, "parse"); nested != nil {
		t.Fatal("a nested span with no tracer should not start")
	}
	sp.End()
	attrs := trace.StageAttrs()
	if len(attrs) != 1 || attrs[0].(slog.Attr).Key != "read" {
		t.Fatalf("stage not recorded: %v", attrs)
	}
}
