// Package tables regenerates the paper's experimental exhibits: Table 1
// (stuck-at test sets) and Table 2 (path-delay test sets), each comparing
// 9C, 9C+HC and the EA compressor, plus the (K,L) sweep behind the
// EA-Best column and the ablation studies of ablation.go.
package tables

import (
	"context"
	"fmt"
	"strings"

	tcomp "repro"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/iscasgen"
	"repro/internal/pipeline"
	"repro/internal/testset"
)

// Config controls an experiment run.
type Config struct {
	// MaxBits caps per-circuit test-set size (0 = full paper sizes; the
	// two largest path-delay sets are then 36M and 81M bits).
	MaxBits int
	// Seed drives test-set generation and the EA.
	Seed int64
	// Runs is the number of EA runs averaged per circuit (paper: 5).
	Runs int
	// Generations / NoImprove bound each EA run (paper: 500 generations
	// without improvement for Table 2).
	Generations int
	NoImprove   int
	// Sweep enables the EA-Best column's (K,L) sweep for Table 1.
	Sweep bool
	// SweepKs/SweepLs configure the sweep grid.
	SweepKs, SweepLs []int
	// Circuits restricts the run to the named circuits (nil = all).
	Circuits []string
	// Workers bounds circuit-level parallelism on the pipeline engine
	// (0 = one worker per CPU, 1 = serial). Per-circuit work depends only
	// on Seed, so every worker count yields identical rows.
	Workers int
}

// QuickConfig returns a configuration sized for CI-scale runs: scaled
// test sets and a reduced-but-real EA budget.
func QuickConfig(seed int64) Config {
	return Config{
		MaxBits:     24000,
		Seed:        seed,
		Runs:        2,
		Generations: 60,
		NoImprove:   25,
		Sweep:       true,
		SweepKs:     []int{8, 12},
		SweepLs:     []int{16, 64},
	}
}

// FullConfig returns the paper's configuration: about three minutes for
// the whole of Table 1 and two for Table 2 on a 2-vCPU VM.
func FullConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Runs:        5,
		Generations: 5000,
		NoImprove:   500,
		Sweep:       true,
		SweepKs:     []int{4, 6, 8, 10, 12, 16},
		SweepLs:     []int{9, 16, 32, 64, 128},
	}
}

// Row is one circuit's measured results next to the paper's numbers.
type Row struct {
	Meta iscasgen.Meta
	Bits int // generated test-set size actually used

	R9C   float64 // measured 9C (K=8)
	R9CHC float64 // measured 9C+HC (K=8)
	REA   float64 // measured EA  (Table 1: K=12,L=64; Table 2: K=8,L=9)
	REA2  float64 // measured EA-Best (Table 1 sweep) / EA2 (Table 2: K=12,L=64)
}

func (c Config) eaParams(k, l int, seed int64) core.Params {
	p := core.Params{
		K:         k,
		L:         l,
		EA:        ea.DefaultConfig(seed),
		ForceAllU: true,
		Runs:      c.Runs,
		Workers:   c.Workers,
	}
	if p.Runs <= 0 {
		p.Runs = 2
	}
	if c.Generations > 0 {
		p.EA.MaxGenerations = c.Generations
	}
	if c.NoImprove > 0 {
		p.EA.MaxNoImprove = c.NoImprove
	}
	return p
}

func (c Config) wants(name string) bool {
	if len(c.Circuits) == 0 {
		return true
	}
	for _, n := range c.Circuits {
		if n == name {
			return true
		}
	}
	return false
}

// compress runs the named registered codec on ts — every column now
// flows through the public codec registry rather than scheme-specific
// entry points.
func compress(ctx context.Context, name string, ts *testset.TestSet, opts ...tcomp.Option) (*tcomp.Artifact, error) {
	codec, err := tcomp.Lookup(name)
	if err != nil {
		return nil, err
	}
	return codec.Compress(ctx, ts, opts...)
}

// compressEA runs the "ea" codec and returns its rich result.
func compressEA(ctx context.Context, ts *testset.TestSet, p core.Params) (*core.Result, error) {
	art, err := compress(ctx, "ea", ts, tcomp.WithEAParams(p))
	if err != nil {
		return nil, err
	}
	res, ok := art.Extra.(*core.Result)
	if !ok {
		return nil, fmt.Errorf("tables: ea artifact carries %T, want *core.Result", art.Extra)
	}
	return res, nil
}

// runRow measures all columns for one circuit.
func (c Config) runRow(ctx context.Context, m iscasgen.Meta, ts *testset.TestSet) (Row, error) {
	row := Row{Meta: m, Bits: ts.TotalBits()}
	nine, err := compress(ctx, "9c", ts, tcomp.WithBlockLen(8))
	if err != nil {
		return row, fmt.Errorf("%s: 9C: %v", m.Name, err)
	}
	row.R9C = nine.RatePercent()
	hc, err := compress(ctx, "9chc", ts, tcomp.WithBlockLen(8))
	if err != nil {
		return row, fmt.Errorf("%s: 9C+HC: %v", m.Name, err)
	}
	row.R9CHC = hc.RatePercent()

	if m.Kind == iscasgen.StuckAt {
		res, err := compressEA(ctx, ts, c.eaParams(12, 64, c.Seed))
		if err != nil {
			return row, fmt.Errorf("%s: EA: %v", m.Name, err)
		}
		row.REA = res.AverageRate
		if c.Sweep {
			base := c.eaParams(12, 64, c.Seed+1)
			base.Runs = 1
			_, best, err := core.SweepCtx(ctx, ts, base, c.SweepKs, c.SweepLs, base.Workers)
			if err != nil {
				return row, fmt.Errorf("%s: sweep: %v", m.Name, err)
			}
			row.REA2 = best.Rate
			if res.BestRate > row.REA2 {
				row.REA2 = res.BestRate
			}
		} else {
			row.REA2 = res.BestRate
		}
		return row, nil
	}

	// Path delay: EA1 (K=8, L=9) and EA2 (K=12, L=64).
	res1, err := compressEA(ctx, ts, c.eaParams(8, 9, c.Seed))
	if err != nil {
		return row, fmt.Errorf("%s: EA1: %v", m.Name, err)
	}
	row.REA = res1.AverageRate
	res2, err := compressEA(ctx, ts, c.eaParams(12, 64, c.Seed))
	if err != nil {
		return row, fmt.Errorf("%s: EA2: %v", m.Name, err)
	}
	row.REA2 = res2.AverageRate
	return row, nil
}

// CodecRate is one registered codec's outcome on a test set.
type CodecRate struct {
	Codec          string
	Rate           float64
	CompressedBits int
}

// CodecRates compresses ts with every codec in the registry — the
// paper's full related-work comparison (RL, Golomb, FDR, selective
// Huffman, 9C, 9C+HC, EA) — one pipeline job per codec, c.Workers wide.
// Results are returned in registry (sorted-name) order regardless of
// scheduling.
func CodecRates(ctx context.Context, ts *testset.TestSet, c Config) ([]CodecRate, error) {
	opts := []tcomp.Option{
		tcomp.WithSeed(c.Seed),
		tcomp.WithWorkers(c.Workers),
		tcomp.WithEAParams(c.eaParams(12, 64, c.Seed)),
	}
	names := tcomp.Codecs()
	jobs := make([]pipeline.Job[CodecRate], len(names))
	for i, name := range names {
		name := name
		jobs[i] = pipeline.Job[CodecRate]{
			Name: name,
			Run: func(ctx context.Context, _ int64) (CodecRate, error) {
				art, err := compress(ctx, name, ts, opts...)
				if err != nil {
					return CodecRate{}, fmt.Errorf("tables: %s: %v", name, err)
				}
				return CodecRate{Codec: name, Rate: art.RatePercent(), CompressedBits: art.CompressedBits}, nil
			},
		}
	}
	results, err := pipeline.Run(ctx, pipeline.Config{Workers: c.Workers}, jobs)
	if err != nil {
		return nil, err
	}
	return pipeline.Values(results), nil
}

// Run executes the experiment for one registry table.
func Run(metas []iscasgen.Meta, c Config) ([]Row, error) {
	return RunCtx(context.Background(), metas, c)
}

// RunCtx runs one pipeline job per selected circuit, c.Workers wide.
// Each circuit derives its test set and EA seeds from c.Seed alone —
// never from scheduling — so the rows are identical at any worker count
// and are always reported in registry order.
func RunCtx(ctx context.Context, metas []iscasgen.Meta, c Config) ([]Row, error) {
	var wanted []iscasgen.Meta
	for _, m := range metas {
		if c.wants(m.Name) {
			wanted = append(wanted, m)
		}
	}
	jobs := make([]pipeline.Job[Row], len(wanted))
	for i, m := range wanted {
		m := m
		jobs[i] = pipeline.Job[Row]{
			Name: m.Name,
			Run: func(ctx context.Context, _ int64) (Row, error) {
				ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: c.MaxBits, Seed: c.Seed})
				if err != nil {
					return Row{}, err
				}
				return c.runRow(ctx, m, ts)
			},
		}
	}
	results, err := pipeline.Run(ctx, pipeline.Config{Workers: c.Workers}, jobs)
	if err != nil {
		return nil, err
	}
	return pipeline.Values(results), nil
}

// RunTable1 regenerates Table 1 (stuck-at).
func RunTable1(c Config) ([]Row, error) { return Run(iscasgen.Table1(), c) }

// RunTable2 regenerates Table 2 (path delay).
func RunTable2(c Config) ([]Row, error) { return Run(iscasgen.Table2(), c) }

// Averages returns the measured column means over rows.
func Averages(rows []Row) (r9c, r9chc, rea, rea2 float64) {
	return columnMeans(rows, func(r Row) [4]float64 { return [4]float64{r.R9C, r.R9CHC, r.REA, r.REA2} })
}

// paperAverages returns the published column means over rows; over a
// whole table they round to the paper's own "Average" row.
func paperAverages(rows []Row) (p9c, p9chc, pea, pea2 float64) {
	return columnMeans(rows, func(r Row) [4]float64 {
		return [4]float64{r.Meta.Paper9C, r.Meta.Paper9CHC, r.Meta.PaperEA, r.Meta.PaperEA2}
	})
}

// columnMeans averages four columns over rows (zeros for no rows).
func columnMeans(rows []Row, cols func(Row) [4]float64) (a, b, c, d float64) {
	if len(rows) == 0 {
		return
	}
	var sum [4]float64
	for _, r := range rows {
		for i, v := range cols(r) {
			sum[i] += v
		}
	}
	n := float64(len(rows))
	return sum[0] / n, sum[1] / n, sum[2] / n, sum[3] / n
}

// Format renders rows in the paper's table layout, with the published
// numbers alongside for comparison. The "Average" row's measured and
// published columns are both means over the printed rows, so a
// -circuits subset compares like with like.
func Format(rows []Row, kind iscasgen.Kind) string {
	var sb strings.Builder
	col3, col4 := "EA", "EA-Best"
	if kind == iscasgen.PathDelay {
		col3, col4 = "EA1", "EA2"
	}
	fmt.Fprintf(&sb, "%-8s %10s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"Circuit", "Bits", "9C", "9C+HC", col3, col4,
		"p:9C", "p:9CHC", "p:"+col3, "p:"+col4)
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 100))
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %10d | %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
			r.Meta.Name, r.Bits, r.R9C, r.R9CHC, r.REA, r.REA2,
			r.Meta.Paper9C, r.Meta.Paper9CHC, r.Meta.PaperEA, r.Meta.PaperEA2)
	}
	a, b, c, d := Averages(rows)
	pa, pb, pc, pd := paperAverages(rows)
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 100))
	fmt.Fprintf(&sb, "%-8s %10s | %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
		"Average", "", a, b, c, d, pa, pb, pc, pd)
	return sb.String()
}

// ShapeCheck verifies the paper's qualitative findings on measured rows:
// (1) Huffman codewords improve on the fixed 9C code on average,
// (2) the EA improves on 9C+HC on average,
// (3) the second EA configuration is at least about as good as the first
// on average. It returns a list of violated properties (empty = shape
// reproduced).
func ShapeCheck(rows []Row) []string {
	a, b, c, d := Averages(rows)
	var bad []string
	if b < a {
		bad = append(bad, fmt.Sprintf("9C+HC average %.1f%% below 9C %.1f%%", b, a))
	}
	if c <= b {
		bad = append(bad, fmt.Sprintf("EA average %.1f%% not above 9C+HC %.1f%%", c, b))
	}
	if d < c-1.0 {
		bad = append(bad, fmt.Sprintf("EA-Best/EA2 average %.1f%% below EA %.1f%%", d, c))
	}
	return bad
}
