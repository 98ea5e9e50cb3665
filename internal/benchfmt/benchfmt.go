// Package benchfmt defines the repo's committed benchmark baseline
// format and the tooling to produce and compare it.
//
// A baseline file (BENCH_codec.json, BENCH_serve.json at the repo root)
// is one JSON object in a small stable schema:
//
//	{
//	  "schema": "tcomp-bench/1",
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",
//	  "results": [
//	    {"pkg": "repro/internal/bitstream", "name": "BenchmarkBitstreamRead/ReadBits",
//	     "procs": 8, "iters": 100, "ns_per_op": 52119, "mb_per_s": 135.67,
//	     "b_per_op": 64, "allocs_per_op": 1}
//	  ]
//	}
//
// Results come from parsing `go test -bench` text output (Parse).
// Absent metrics are recorded as -1 (b_per_op, allocs_per_op) or 0
// (mb_per_s); custom b.ReportMetric values land in "extra".
//
// Diff compares two baseline files benchmark-by-benchmark and flags a
// regression when ns/op grows beyond a tolerance; cmd/benchdiff wraps it
// as the CI perf ratchet.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the baseline file format.
const SchemaVersion = "tcomp-bench/1"

// Result is one benchmark measurement.
type Result struct {
	// Pkg is the Go package the benchmark ran in ("pkg:" header line).
	Pkg string `json:"pkg"`
	// Name is the benchmark name with any GOMAXPROCS suffix stripped
	// (BenchmarkFoo/sub, not BenchmarkFoo/sub-8); the suffix moves to
	// Procs so baselines from machines with different core counts still
	// key against each other.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix, 1 when the name carried none.
	Procs int `json:"procs"`
	// Iters is the iteration count the timing was averaged over.
	Iters int64 `json:"iters"`
	// NsPerOp is the headline metric the ratchet gates on.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerS is throughput for benchmarks that call b.SetBytes; 0 when
	// not reported.
	MBPerS float64 `json:"mb_per_s"`
	// BytesPerOp and AllocsPerOp come from b.ReportAllocs; -1 when not
	// reported.
	BytesPerOp  int64 `json:"b_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric values (e.g. "avg9C%").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Key identifies a benchmark across baselines: package plus name, but
// not the machine-dependent procs suffix.
func (r *Result) Key() string {
	if r.Pkg == "" {
		return r.Name
	}
	return r.Pkg + "." + r.Name
}

// File is a committed benchmark baseline.
type File struct {
	Schema  string   `json:"schema"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// benchLine matches a `go test -bench` result line:
//
//	BenchmarkName-8   	     100	  11560142 ns/op	   5.67 MB/s	  606137 B/op	 4113 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*)\s+(\d+)\s+(.+)$`)

// metricPair matches one "value unit" measurement within a result line.
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\s+([^\s]+)`)

// Parse reads `go test -bench` text output. Lines that are not
// benchmark results or goos/goarch/cpu/pkg headers are ignored, so the
// interleaved PASS/ok chatter of a multi-package run parses cleanly.
func Parse(r io.Reader) (*File, error) {
	f := &File{Schema: SchemaVersion}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			res, ok := parseResult(pkg, m)
			if ok {
				f.Results = append(f.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: reading bench output: %w", err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark result lines found")
	}
	return f, nil
}

// parseResult converts one matched benchmark line. Lines whose metric
// tail does not include ns/op (e.g. a bare "BenchmarkFoo" progress line
// from -v output) are skipped, not errors.
func parseResult(pkg string, m []string) (Result, bool) {
	res := Result{Pkg: pkg, Name: m[1], Procs: 1, MBPerS: 0, BytesPerOp: -1, AllocsPerOp: -1}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil && p > 0 {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	res.Iters, _ = strconv.ParseInt(m[2], 10, 64)
	sawNs := false
	for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
		v, err := strconv.ParseFloat(pair[1], 64)
		if err != nil {
			continue
		}
		switch pair[2] {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "MB/s":
			res.MBPerS = v
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[pair[2]] = v
		}
	}
	return res, sawNs
}

// Read decodes a baseline file. Anything but one JSON object in the
// current schema — a raw `go test -json` event stream included — is
// refused.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: reading baseline: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: bad baseline file: %w", err)
	}
	if f.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchfmt: unsupported schema %q (want %q)", f.Schema, SchemaVersion)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("benchfmt: baseline has no results")
	}
	return &f, nil
}

// ReadFile reads a baseline from disk.
func ReadFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	f, err := Read(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Write encodes the baseline as indented JSON with a trailing newline
// (it is committed to git; diffs should be line-stable).
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes the baseline to disk.
func (f *File) WriteFile(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Key string
	// Old or New is nil when the benchmark exists on only one side
	// (never a regression by itself: bench sets evolve across PRs).
	Old, New *Result
	// Ratio is new/old ns/op (1.0 = unchanged, <1 = faster).
	Ratio float64
	// Regression is true when new ns/op exceeds old by more than the
	// tolerance.
	Regression bool
}

// PercentChange returns the signed ns/op change in percent.
func (d *Delta) PercentChange() float64 { return (d.Ratio - 1) * 100 }

// Diff compares two baselines. tolerance is fractional (0.08 = 8%);
// a benchmark regresses when newNs > oldNs*(1+tolerance). The returned
// bool reports whether any benchmark regressed.
func Diff(old, new *File, tolerance float64) ([]Delta, bool) {
	oldBy := map[string]*Result{}
	for i := range old.Results {
		oldBy[old.Results[i].Key()] = &old.Results[i]
	}
	seen := map[string]bool{}
	var deltas []Delta
	regressed := false
	for i := range new.Results {
		n := &new.Results[i]
		seen[n.Key()] = true
		o := oldBy[n.Key()]
		d := Delta{Key: n.Key(), Old: o, New: n}
		if o != nil && o.NsPerOp > 0 {
			d.Ratio = n.NsPerOp / o.NsPerOp
			d.Regression = n.NsPerOp > o.NsPerOp*(1+tolerance)
			regressed = regressed || d.Regression
		}
		deltas = append(deltas, d)
	}
	for i := range old.Results {
		if o := &old.Results[i]; !seen[o.Key()] {
			deltas = append(deltas, Delta{Key: o.Key(), Old: o})
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Key < deltas[j].Key })
	return deltas, regressed
}

// Markdown renders the delta table (GitHub-flavored), suitable for a CI
// job summary.
func Markdown(w io.Writer, deltas []Delta, tolerance float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "| benchmark | old ns/op | new ns/op | Δ ns/op | old MB/s | new MB/s | status |\n")
	fmt.Fprintf(bw, "|---|---:|---:|---:|---:|---:|---|\n")
	mbs := func(r *Result) string {
		if r == nil || r.MBPerS == 0 {
			return "—"
		}
		return fmt.Sprintf("%.2f", r.MBPerS)
	}
	ns := func(r *Result) string {
		if r == nil {
			return "—"
		}
		return fmt.Sprintf("%.0f", r.NsPerOp)
	}
	for _, d := range deltas {
		status, change := "ok", "—"
		switch {
		case d.Old == nil:
			status = "new"
		case d.New == nil:
			status = "removed"
		default:
			change = fmt.Sprintf("%+.1f%%", d.PercentChange())
			if d.Regression {
				status = fmt.Sprintf("**REGRESSION** (>%+.0f%%)", tolerance*100)
			} else if d.Ratio < 1-tolerance {
				status = "improved"
			}
		}
		fmt.Fprintf(bw, "| %s | %s | %s | %s | %s | %s | %s |\n",
			d.Key, ns(d.Old), ns(d.New), change, mbs(d.Old), mbs(d.New), status)
	}
	return bw.Flush()
}
