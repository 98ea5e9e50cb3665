package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// Trace is the per-request observability record: the request ID that
// names the request in the response header, every log line, the error
// body, and any async job it spawns — plus the durations of the spans
// directly under the request (queue_wait, read, compress, write, ...),
// which the request-completion log line lists. It travels by context;
// all methods are safe for concurrent use, and a nil *Trace is a valid
// no-op receiver so deep layers never need to check for presence.
type Trace struct {
	requestID string

	mu     sync.Mutex
	stages []slog.Attr // one per span name, in first-end order
}

// NewTrace returns a trace for the given request ID; an empty ID gets a
// fresh one.
func NewTrace(requestID string) *Trace {
	if requestID == "" {
		requestID = NewRequestID()
	}
	return &Trace{requestID: requestID}
}

// RequestID returns the trace's request ID ("" on a nil trace).
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.requestID
}

// record adds one ended span's duration. A repeated name is summed
// into the name's first attribute, keeping keys unique (duplicate slog
// keys render as indistinguishable JSON fields).
func (t *Trace) record(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range t.stages {
		if a.Key == name {
			t.stages[i].Value = slog.DurationValue(a.Value.Duration() + d)
			return
		}
	}
	t.stages = append(t.stages, slog.Duration(name, d))
}

// StageAttrs returns the request's span durations as slog attributes
// (span name → summed duration, in first-end order), for attaching to
// the request-completion log line.
func (t *Trace) StageAttrs() []any {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	attrs := make([]any, len(t.stages))
	for i, a := range t.stages {
		attrs[i] = a
	}
	return attrs
}

// ctxKey keeps the trace private to this package's accessors.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the context's trace, or nil. The nil return is safe
// to call methods on.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	return TraceFrom(ctx).RequestID()
}

// NewRequestID mints a 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// The OS entropy source failing is unrecoverable here; IDs only
		// need uniqueness, and every other ID source derives from the
		// same pool.
		panic(fmt.Sprintf("obs: reading random request ID bytes: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen bounds an accepted client-supplied request ID.
const maxRequestIDLen = 64

// SanitizeRequestID validates a client-supplied X-Request-Id: printable
// ASCII without spaces, quotes, or backslashes, at most 64 characters.
// Anything else returns "" and the caller mints a fresh ID — a hostile
// header must not be able to inject into logs or break the exposition
// format.
func SanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > maxRequestIDLen {
		return ""
	}
	if strings.ContainsFunc(s, func(r rune) bool {
		return r <= ' ' || r > '~' || r == '"' || r == '\\'
	}) {
		return ""
	}
	return s
}
