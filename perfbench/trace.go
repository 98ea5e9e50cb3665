package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written
// out as JSONL when the run ends. A nil *tracer records nothing, so
// untraced rotations run the same code with no spans.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. All spans of one operation share Op;
// Parent is 0 for the operation's root span. Times are milliseconds
// since the tracer started.
type spanRec struct {
	Op     int64          `json:"op"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_ms"`
	End    float64        `json:"end_ms"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s spanRec) dur() float64 { return s.End - s.Start }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return ms(tm.Sub(t.t0)) }

// span is an open span. Its methods are no-ops on nil, the span an
// untraced rotation gets.
type span struct {
	tr    *tracer
	rec   spanRec
	start time.Time
}

// root opens the root span of operation op.
func (t *tracer) root(op int, name string) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, rec: spanRec{Op: int64(op), ID: t.ids.Add(1), Name: name}, start: time.Now()}
}

// child opens a span under s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{tr: s.tr, rec: spanRec{Op: s.rec.Op, ID: s.tr.ids.Add(1), Parent: s.rec.ID, Name: name}, start: time.Now()}
}

func (s *span) set(key string, v any) {
	if s == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = map[string]any{}
	}
	s.rec.Attrs[key] = v
}

// end closes the span and returns its duration in milliseconds.
func (s *span) end() float64 {
	if s == nil {
		return 0
	}
	s.rec.Start = s.tr.at(s.start)
	s.rec.End = s.tr.at(time.Now())
	s.tr.add(s.rec)
	return s.rec.dur()
}

// interval records a finished child span of s from timestamps taken
// elsewhere, such as a job record's Created/Started/Finished times, and
// returns its id for children of its own.
func (s *span) interval(name string, from, to time.Time) int64 {
	if s == nil {
		return 0
	}
	rec := spanRec{Op: s.rec.Op, ID: s.tr.ids.Add(1), Parent: s.rec.ID, Name: name,
		Start: s.tr.at(from), End: s.tr.at(to)}
	s.tr.add(rec)
	return rec.ID
}

// handle returns a handle on the already recorded span id of operation
// op, under which a replay opens its children.
func (t *tracer) handle(op int, id int64) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, rec: spanRec{Op: int64(op), ID: id}}
}

// id returns the span's id, 0 for nil.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

func (t *tracer) add(r spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(dir, workload string, seed int64) (string, error) {
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ledgerOf computes every span's self time, its duration minus its
// children's durations, and sums it by span name over the operations
// whose root span is named root. It returns the per-operation mean by
// name, the mean root duration and the number of operations.
//
// Replayed children ran after the operation, not inside it, so they are
// children by attribution, not by time. The self times of an operation
// still sum exactly to its root span.
func ledgerOf(spans []spanRec, root func(spanRec) bool) (self map[string]float64, rootMean float64, n int) {
	parent := map[int64]int64{}
	childSum := map[int64]float64{}
	roots := map[int64]bool{}
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		} else if root(s) {
			roots[s.ID] = true
			rootMean += s.dur()
		}
	}
	top := func(id int64) int64 {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	self = map[string]float64{}
	for _, s := range spans {
		if roots[top(s.ID)] {
			self[s.Name] += s.dur() - childSum[s.ID]
		}
	}
	n = len(roots)
	if n == 0 {
		return self, 0, 0
	}
	for k := range self {
		self[k] /= float64(n)
	}
	return self, rootMean / float64(n), n
}
