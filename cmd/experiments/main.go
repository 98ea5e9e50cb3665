// Command experiments regenerates the paper's Table 1 and Table 2, plus
// the (K,L) sweep, ablations, and the full codec-registry comparison,
// printing paper-vs-measured rows.
//
// Usage:
//
//	experiments -table 1                 # quick (scaled) Table 1
//	experiments -table 2 -maxbits 50000
//	experiments -table 1 -full           # paper-scale parameters (slow)
//	experiments -table 1 -circuits s349,s298
//	experiments -codecs s641             # every registered codec on one circuit
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/iscasgen"
	"repro/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		table     = flag.Int("table", 1, "paper table to regenerate (1 = stuck-at, 2 = path delay)")
		full      = flag.Bool("full", false, "paper-scale parameters (full sizes, 5 runs, 500 no-improvement)")
		maxBits   = flag.Int("maxbits", 0, "override test-set size cap (0 = config default)")
		seed      = flag.Int64("seed", 1, "random seed")
		runs      = flag.Int("runs", 0, "override EA run count")
		circuits  = flag.String("circuits", "", "comma-separated circuit subset")
		sweep     = flag.Bool("sweep", true, "compute the EA-Best sweep column (table 1)")
		ablations = flag.String("ablations", "", "run the ablations (subsumption post-pass, crossover operator, search strategy) on the named circuit instead of a table")
		codecs    = flag.String("codecs", "", "compress the named circuit with every registered codec instead of a table")
		streamCmp = flag.String("stream", "", "compare buffered vs chunked streaming compression for every codec on the named circuit")
		chunk     = flag.Int("chunk", 0, "patterns per stream chunk for -stream (0 = streaming default)")
		converge  = flag.String("convergence", "", "dump the EA best-fitness-per-generation series for the named circuit (Figure 1 data)")
		workers   = flag.Int("workers", 0, "parallel circuit jobs on the pipeline engine (0 = one per CPU, 1 = serial; results are identical at any setting)")
	)
	flag.Parse()

	var cfg tables.Config
	if *full {
		cfg = tables.FullConfig(*seed)
	} else {
		cfg = tables.QuickConfig(*seed)
	}
	if *maxBits > 0 {
		cfg.MaxBits = *maxBits
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	cfg.Sweep = *sweep
	cfg.Workers = *workers
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}

	if *converge != "" {
		m, err := iscasgen.Find(*converge, iscasgen.StuckAt)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: cfg.MaxBits, Seed: cfg.Seed})
		if err != nil {
			log.Fatal(err)
		}
		p := core.DefaultParams(cfg.Seed)
		p.Runs = 1
		p.EA.MaxGenerations = cfg.Generations
		p.EA.MaxNoImprove = cfg.NoImprove
		res, err := core.Compress(ts, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# EA convergence on %s (K=%d, L=%d, %d bits)\n", m.Name, p.K, p.L, ts.TotalBits())
		fmt.Println("# generation  best_rate%  mean_rate%  evals")
		for _, g := range res.Runs[0].History {
			fmt.Printf("%5d  %8.3f  %8.3f  %6d\n", g.Generation, g.Best, g.Mean, g.Evals)
		}
		return
	}

	if *codecs != "" {
		m, err := iscasgen.Find(*codecs, iscasgen.StuckAt)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: cfg.MaxBits, Seed: cfg.Seed})
		if err != nil {
			log.Fatal(err)
		}
		rates, err := tables.CodecRates(context.Background(), ts, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(rates, func(i, j int) bool { return rates[i].Rate > rates[j].Rate })
		fmt.Printf("All codecs on %s (%d bits, seed %d):\n\n", m.Name, ts.TotalBits(), cfg.Seed)
		fmt.Printf("%-10s %8s %14s\n", "codec", "rate", "compressed")
		fmt.Println(strings.Repeat("-", 34))
		for _, r := range rates {
			fmt.Printf("%-10s %7.1f%% %13db\n", r.Codec, r.Rate, r.CompressedBits)
		}
		return
	}

	if *streamCmp != "" {
		m, err := iscasgen.Find(*streamCmp, iscasgen.StuckAt)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: cfg.MaxBits, Seed: cfg.Seed})
		if err != nil {
			log.Fatal(err)
		}
		rates, err := tables.StreamRates(context.Background(), ts, cfg, *chunk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Buffered vs streaming on %s (%d bits, seed %d):\n\n", m.Name, ts.TotalBits(), cfg.Seed)
		tables.FormatStreamRates(os.Stdout, rates)
		return
	}

	if *ablations != "" {
		abl, err := tables.RunAblations(*ablations, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Ablations on %s (seed %d, maxbits %d):\n\n", *ablations, cfg.Seed, cfg.MaxBits)
		for _, a := range abl {
			fmt.Println(a)
		}
		return
	}

	var rows []tables.Row
	var err error
	var kind iscasgen.Kind
	switch *table {
	case 1:
		kind = iscasgen.StuckAt
		rows, err = tables.RunTable1(cfg)
	case 2:
		kind = iscasgen.PathDelay
		rows, err = tables.RunTable2(cfg)
	default:
		log.Fatalf("unknown table %d", *table)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table %d (%s test sets) — measured | paper\n", *table, kind)
	fmt.Print(tables.Format(rows, kind))
	if bad := tables.ShapeCheck(rows); len(bad) > 0 {
		fmt.Println("\nSHAPE CHECK VIOLATIONS:")
		for _, b := range bad {
			fmt.Println("  -", b)
		}
	} else {
		fmt.Println("\nshape check OK: 9C <= 9C+HC < EA, second EA column consistent")
	}
}
