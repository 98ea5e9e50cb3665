// Command atpggen generates test sets from gate-level circuits: stuck-at
// patterns with don't-cares (PODEM + X-maximization) or robust path-delay
// two-pattern tests.
//
// Usage:
//
//	atpggen -bench c17.bench -model stuckat -out tests.txt
//	atpggen -random 'inputs=10,gates=80,outputs=6,seed=3' -model pathdelay
//	atpggen -c17 -model stuckat -drop
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/delay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atpggen: ")
	var (
		benchPath = flag.String("bench", "", "input .bench netlist")
		useC17    = flag.Bool("c17", false, "use the built-in ISCAS-85 c17 circuit")
		random    = flag.String("random", "", "generate a random circuit: 'inputs=N,gates=N,outputs=N,seed=N'")
		model     = flag.String("model", "stuckat", "stuckat | pathdelay")
		out       = flag.String("out", "", "output test-set file (default stdout)")
		drop      = flag.Bool("drop", false, "enable fault dropping (compacted set)")
		noxmax    = flag.Bool("noxmax", false, "disable don't-care maximization")
		seed      = flag.Int64("seed", 1, "seed of the -random circuit when its spec has no seed=")
		maxPaths  = flag.Int("maxpaths", 1000, "path enumeration cap (pathdelay)")
	)
	flag.Parse()

	var c *circuit.Circuit
	var err error
	switch {
	case *useC17:
		c = circuit.C17()
	case *benchPath != "":
		f, err2 := os.Open(*benchPath)
		if err2 != nil {
			log.Fatal(err2)
		}
		c, err = circuit.ParseBench(*benchPath, f)
		_ = f.Close() // read side; the parse error is the one that matters
		if err != nil {
			log.Fatal(err)
		}
	case *random != "":
		opt := circuit.RandomOptions{Inputs: 8, Gates: 50, Outputs: 4, Seed: *seed}
		for _, kv := range strings.Split(*random, ",") {
			var key string
			var val int
			if _, err := fmt.Sscanf(kv, "%s", &key); err != nil || !strings.Contains(kv, "=") {
				log.Fatalf("bad -random clause %q", kv)
			}
			parts := strings.SplitN(kv, "=", 2)
			if _, err := fmt.Sscanf(parts[1], "%d", &val); err != nil {
				log.Fatalf("bad -random clause %q", kv)
			}
			switch parts[0] {
			case "inputs":
				opt.Inputs = val
			case "gates":
				opt.Gates = val
			case "outputs":
				opt.Outputs = val
			case "seed":
				opt.Seed = int64(val)
			default:
				log.Fatalf("unknown -random key %q", parts[0])
			}
		}
		c, err = circuit.Random("random", opt)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("one of -bench, -c17, -random is required")
	}

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
	}

	switch *model {
	case "stuckat":
		opt := atpg.DefaultOptions()
		opt.FaultDropping = *drop
		opt.XMaximize = !*noxmax
		res, err := atpg.Generate(c, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "stuck-at: %d faults, %d detected (%.1f%%), %d untestable, %d aborted, %d patterns, density %.3f\n",
			res.Faults, res.Detected, 100*res.Coverage(), res.Untestable, res.Aborted,
			res.Tests.NumPatterns(), res.Tests.CareDensity())
		if err := res.Tests.Write(w); err != nil {
			log.Fatal(err)
		}
	case "pathdelay":
		opt := delay.DefaultOptions()
		opt.MaxPaths = *maxPaths
		opt.XMaximize = !*noxmax
		res, err := delay.Generate(c, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "path-delay: %d path×dir attempts, %d robust (%.1f%%), %d patterns, density %.3f\n",
			res.Paths, res.Robust, 100*res.Coverage(),
			res.Tests.NumPatterns(), res.Tests.CareDensity())
		if err := res.Tests.Write(w); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown model %q", *model)
	}
}
