package obs

import (
	"context"
	"log/slog"
	"strings"
	"testing"
)

// TestTraceContext: the trace rides the context; the spans started on
// it accumulate as log-line stages in end order; the nil trace (no
// middleware upstream) is a safe no-op.
func TestTraceContext(t *testing.T) {
	tr := NewTrace("abc123")
	ctx := WithTrace(context.Background(), tr)
	if RequestID(ctx) != "abc123" {
		t.Fatalf("RequestID = %q", RequestID(ctx))
	}
	_, read := StartSpan(ctx, "read")
	read.End()
	_, compress := StartSpan(ctx, "compress")
	compress.End()
	attrs := tr.StageAttrs()
	if len(attrs) != 2 || attrs[0].(slog.Attr).Key != "read" || attrs[1].(slog.Attr).Key != "compress" {
		t.Fatalf("stages = %v", attrs)
	}

	// Absent trace: everything no-ops.
	bare := context.Background()
	if RequestID(bare) != "" {
		t.Fatalf("RequestID on bare context = %q", RequestID(bare))
	}
	_, sp := StartSpan(bare, "x")
	sp.End() // must not panic
	if TraceFrom(bare).RequestID() != "" || TraceFrom(bare).StageAttrs() != nil {
		t.Fatal("nil trace must answer an empty request ID and no stages")
	}
}

// TestNewTraceMintsID: an empty ID gets a fresh 16-hex one.
func TestNewTraceMintsID(t *testing.T) {
	a, b := NewTrace(""), NewTrace("")
	if len(a.RequestID()) != 16 || a.RequestID() == b.RequestID() {
		t.Fatalf("minted IDs %q, %q", a.RequestID(), b.RequestID())
	}
}

// TestSanitizeRequestID: hostile client-supplied IDs (log injection,
// exposition breakage, oversized) are rejected; plain tokens pass.
func TestSanitizeRequestID(t *testing.T) {
	for _, ok := range []string{"abc", "req-42_x.y:z", "0123456789abcdef"} {
		if SanitizeRequestID(ok) != ok {
			t.Fatalf("rejected valid ID %q", ok)
		}
	}
	for _, bad := range []string{
		"", "has space", "new\nline", `back\slash`, `quo"te`, "tab\there",
		strings.Repeat("x", 65), "\x00", "ünïcode",
	} {
		if got := SanitizeRequestID(bad); got != "" {
			t.Fatalf("accepted hostile ID %q as %q", bad, got)
		}
	}
}
