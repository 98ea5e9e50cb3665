package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// Registry renders registered metrics in the Prometheus text exposition
// format (version 0.0.4) — the format every Prometheus-compatible
// scraper speaks — without importing a client library. Registration
// stores references, not snapshots: WriteTo reads the live values on
// every scrape.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

// family is one registered metric family: its metadata plus a collector
// that renders the sample lines.
type family struct {
	name, help, typ string
	collect         func(w io.Writer)
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register panics on malformed or duplicate names: metric registration
// happens once at construction, so a bad name is a programming error,
// not input data.
func (r *Registry) register(name, help, typ string, collect func(w io.Writer)) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
	r.families = append(r.families, family{name, help, typ, collect})
}

// Counter registers a counter. Prometheus counter names end in _total
// by convention; the name is used as given.
func (r *Registry) Counter(name, help string, c *Counter) {
	r.register(name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	})
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string, g *Gauge) {
	r.register(name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	})
}

// GaugeFunc registers a computed gauge (e.g. a ratio of two counters).
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(f()))
	})
}

// CounterFunc registers a computed counter (e.g. a total read from a
// runtime or exporter stats surface).
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(f()))
	})
}

// CounterVec registers a labelled counter family under one label name.
func (r *Registry) CounterVec(name, help, label string, c *LabelCounter) {
	if !metricNameRe.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.register(name, help, "counter", func(w io.Writer) {
		c.Do(func(key string, ctr *Counter) {
			fmt.Fprintf(w, "%s{%s=%s} %d\n", name, label, quoteLabel(key), ctr.Value())
		})
	})
}

// HistogramVec registers a labelled histogram family under one label
// name.
func (r *Registry) HistogramVec(name, help, label string, v *HistogramVec) {
	if !metricNameRe.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.register(name, help, "histogram", func(w io.Writer) {
		v.Do(func(key string, h *Histogram) {
			writeHistogram(w, name, label, key, h)
		})
	})
}

// writeHistogram renders one labelled histogram's samples: cumulative
// _bucket{label=...,le=...} lines ending in le="+Inf", then _sum and
// _count.
func writeHistogram(w io.Writer, name, label, key string, h *Histogram) {
	bounds, counts := h.Snapshot()
	pair := label + "=" + quoteLabel(key)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, pair, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, pair, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, pair, cum)
}

// quoteLabel escapes a label value per the exposition format: backslash,
// double quote, and newline are escaped inside double quotes.
func quoteLabel(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// WriteTo renders every registered family — # HELP, # TYPE, samples —
// in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	cw := &countWriter{w: bufio.NewWriter(w)}
	for _, f := range fams {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(cw)
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

// escapeHelp escapes backslash and newline in help text per the format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ServeHTTP answers a scrape with the text exposition body.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	var buf strings.Builder
	if _, err := r.WriteTo(&buf); err != nil {
		http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = io.WriteString(w, buf.String()) // client gone: nothing to do
}

// countWriter tracks bytes written and the first error.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if c.err == nil {
		c.err = err
	}
	return n, err
}
