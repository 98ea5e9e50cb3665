// Command benchdiff is the repo's benchmark ratchet tool. It converts
// `go test -bench` output into the committed tcomp-bench/1 baseline
// schema and compares two baselines, failing (exit 1) when any shared
// benchmark's ns/op regressed beyond the tolerance.
//
// Compare (the CI ratchet):
//
//	benchdiff -old BENCH_codec.json -new out.json -tolerance 8%
//
// prints a markdown delta table and exits 1 on regression, 0 otherwise
// (2 on usage or format errors). -markdown FILE additionally writes the
// table to FILE (CI appends it to the job summary).
//
// Parse fresh bench output into a baseline:
//
//	go test -run=NONE -bench=. ./... | benchdiff -parse - -out new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline file (tcomp-bench/1 schema)")
		newPath   = flag.String("new", "", "candidate file to compare against -old")
		tolerance = flag.String("tolerance", "10%", "ns/op regression tolerance, e.g. 8% or 0.08")
		markdown  = flag.String("markdown", "", "also write the delta table to this file")
		parse     = flag.String("parse", "", "parse `go test -bench` text output from this file (- = stdin) into the schema")
		outPath   = flag.String("out", "", "output path for -parse (- or empty = stdout)")
	)
	flag.Parse()

	switch {
	case *parse != "":
		convert(*parse, *outPath)
	case *oldPath != "" && *newPath != "":
		compare(*oldPath, *newPath, *tolerance, *markdown)
	default:
		fatalUsage("need either -old/-new (compare) or -parse (convert)")
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "benchdiff:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// convert parses `go test -bench` output and writes the schema file.
func convert(inPath, outPath string) {
	in := os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	bf, err := benchfmt.Parse(in)
	if err != nil {
		fatal(err)
	}
	if outPath == "" || outPath == "-" {
		if err := bf.Write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if err := bf.WriteFile(outPath); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: wrote %d results to %s\n", len(bf.Results), outPath)
}

// parseTolerance accepts "8%" or "0.08".
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad tolerance %q (want e.g. 8%% or 0.08)", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

func compare(oldPath, newPath, tol, markdownPath string) {
	tolerance, err := parseTolerance(tol)
	if err != nil {
		fatal(err)
	}
	oldF, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		fatal(err)
	}
	newF, err := benchfmt.ReadFile(newPath)
	if err != nil {
		fatal(err)
	}
	deltas, regressed := benchfmt.Diff(oldF, newF, tolerance)
	if err := benchfmt.Markdown(os.Stdout, deltas, tolerance); err != nil {
		fatal(err)
	}
	if markdownPath != "" {
		f, err := os.Create(markdownPath)
		if err != nil {
			fatal(err)
		}
		if err := benchfmt.Markdown(f, deltas, tolerance); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION beyond %s tolerance (see table)\n", tol)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: ok, %d benchmarks within %s tolerance\n", len(deltas), tol)
}
