// Command perfbench is the repository benchmark. It drives one of three
// workloads through the repository's public entry points, checks every
// operation's output, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (measured with no
// spans recorded); with --trace 1 they are the per-layer ones, taken from
// a traced run that records spans around every public call and replays
// each operation through the next entry point inward.
//
// Run it through run.sh from the root of the checkout, which builds it
// first; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupRepeats is how many times a run builds its inputs and servers.
// setup_s is the median; the last set-up serves the timed phase.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	commit   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds (rounded up to whole rotations)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for result records and span files")
	fs.StringVar(&o.commit, "commit", "unknown", "source commit recorded in the machine stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes carry what the JSON line has no room for: sample counts,
	// the first failures, the span file.
	Notes []string `json:"-"`
}

// stamp identifies the machine and source a result was measured on.
// Results with different stamps are not comparable.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func machineStamp(o options) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     o.commit,
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report prints the machine stamp, every metric by name and unit, and
// the JSON result line, and records the same in the output directory.
func report(stdout io.Writer, o options, res *result) error {
	st := machineStamp(o)
	stampLine, err := json.Marshal(map[string]stamp{"machine": st})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(stampLine))
	for _, n := range res.Notes {
		fmt.Fprintln(stdout, "#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	record, err := json.MarshalIndent(struct {
		Machine stamp    `json:"machine"`
		Notes   []string `json:"notes"`
		*result
	}{st, res.Notes, res}, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if err := os.WriteFile(filepath.Join(dir, name), append(record, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
