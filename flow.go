package tcomp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/container"
	"repro/internal/decoder"
	"repro/internal/delay"
	"repro/internal/iscasgen"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The test flow is the paper's actual use case promoted to a public
// API: take a circuit, generate test patterns for it (stuck-at PODEM
// ATPG or robust path-delay two-pattern tests), let a codec advisor
// race every registered scheme on a sampled prefix, compress the full
// set with the winner into a v3 chunked container, and synthesize the
// matching on-chip decoder as Verilog. Every stage is deterministic in
// the flow seed — per-stage seeds derive from it through the pipeline
// engine's splitmix64 derivation, so a flow re-run (at any worker
// count) reproduces identical artifacts bit for bit.
//
//	flow := tcomp.NewTestFlow(tcomp.FlowSeed(7))
//	c, _ := flow.GenerateCircuit(ctx, "s510")
//	res, _ := flow.Run(ctx, c)
//	os.WriteFile("s510.tc", res.Container, 0o644)
//	os.WriteFile("s510_decoder.v", res.Verilog, 0o644)

// Circuit is a combinational ISCAS-style netlist (DFFs extracted into
// pseudo inputs/outputs), the input of a test flow.
type Circuit = circuit.Circuit

// ErrInvalidCircuit is wrapped by flow circuit constructors when a
// netlist is malformed or exceeds the flow size caps. The daemon maps
// it onto the 422 "flow_invalid_circuit" taxonomy code.
var ErrInvalidCircuit = errors.New("tcomp: invalid circuit")

// Flow circuit caps. Submitted netlists are bounds-checked like the
// container readers: a few text lines must never expand into
// allocations the daemon cannot afford, and ATPG cost grows steeply
// with circuit size.
const (
	// FlowMaxSignals caps total signals (inputs + gates) of a submitted
	// circuit.
	FlowMaxSignals = 20000
	// FlowMaxInputs caps primary inputs — the width of every generated
	// pattern.
	FlowMaxInputs = 4096
	// FlowMaxFanin caps a single gate's fanin list.
	FlowMaxFanin = 64
)

// Flow test-generation kinds, the values FlowTests accepts.
const (
	FlowStuckAt   = "stuck-at"
	FlowPathDelay = "path-delay"
)

// Deterministic per-stage seed indices: each flow stage draws its seed
// as pipeline.Seed(flowSeed, stage), so stages are independently seeded
// but all reproducible from the one root. The circuit stage is
// iscasgen.Circuit, which draws index 0 of the root salted with the
// benchmark name. Test generation is deterministic and draws no seed.
// Both keep their indices so that the later stages keep theirs, and
// every flow its bytes.
const (
	flowStageCircuit = iota
	flowStageATPG
	flowStageRace
	flowStageCompress
	flowStageDecoder
)

// flowOptions collects every knob of a test flow.
type flowOptions struct {
	seed     int64
	workers  int
	codecs   []string
	tests    string
	sample   int
	maxPaths int
	codecOpt []Option
	observe  func(stage string, seconds float64)
}

// FlowOption configures a TestFlow.
type FlowOption func(*flowOptions)

// FlowSeed sets the flow root seed (default 1); every stage seed
// derives from it deterministically.
func FlowSeed(seed int64) FlowOption { return func(o *flowOptions) { o.seed = seed } }

// FlowWorkers bounds the flow's parallelism (0 = one worker per CPU,
// 1 = serial; artifacts are byte-identical at any setting).
func FlowWorkers(n int) FlowOption { return func(o *flowOptions) { o.workers = n } }

// FlowCodecs restricts the advisor race to the named codecs (default:
// every registered codec).
func FlowCodecs(names ...string) FlowOption {
	return func(o *flowOptions) { o.codecs = append([]string(nil), names...) }
}

// FlowTests selects the test-generation kind: FlowStuckAt (default,
// PODEM ATPG over the collapsed stuck-at fault list) or FlowPathDelay
// (robust two-pattern tests).
func FlowTests(kind string) FlowOption { return func(o *flowOptions) { o.tests = kind } }

// FlowSamplePatterns sets how many patterns of the generated set the
// advisor races the codecs on (default 128; 0 or more than the set
// races the full set).
func FlowSamplePatterns(n int) FlowOption { return func(o *flowOptions) { o.sample = n } }

// FlowMaxPaths bounds path enumeration in path-delay mode (default
// 400).
func FlowMaxPaths(n int) FlowOption { return func(o *flowOptions) { o.maxPaths = n } }

// FlowCodecOptions forwards compression options (WithBlockLen,
// WithRuns, ...) to every codec the flow runs. Seed and worker options
// are overridden by the flow's own derived seeds and FlowWorkers.
func FlowCodecOptions(opts ...Option) FlowOption {
	return func(o *flowOptions) { o.codecOpt = append(o.codecOpt, opts...) }
}

// FlowStageObserver installs a callback invoked once per completed flow
// stage with its wall-clock duration — the hook tcompd uses to feed the
// tcompd_flow_stage_seconds histogram. Run reports each of its four
// stages (atpg, race, compress, emit-verilog) exactly once, with the
// value its report's StageSeconds holds.
func FlowStageObserver(fn func(stage string, seconds float64)) FlowOption {
	return func(o *flowOptions) { o.observe = fn }
}

// TestFlow runs the circuit → ATPG → codec race → container + Verilog
// decoder pipeline. The zero value is not usable; construct with
// NewTestFlow. A TestFlow is stateless and safe for concurrent use.
type TestFlow struct {
	o flowOptions
}

// NewTestFlow returns a flow configured by opts.
func NewTestFlow(opts ...FlowOption) *TestFlow {
	o := flowOptions{seed: 1, tests: FlowStuckAt, sample: 128, maxPaths: 400}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return &TestFlow{o: o}
}

// stageSeed derives the deterministic seed of one flow stage.
func (f *TestFlow) stageSeed(stage int) int64 { return pipeline.Seed(f.o.seed, stage) }

// stage times one flow stage and hands the same duration to the report
// and to the observer.
func (f *TestFlow) stage(name string, start time.Time, secs map[string]float64) {
	d := time.Since(start).Seconds()
	secs[name] = d
	if f.o.observe != nil {
		f.o.observe(name, d)
	}
}

// GenerateCircuit builds a deterministic ISCAS-style circuit for a
// registry benchmark (see Benchmarks) with iscasgen.Circuit: a seeded
// random netlist whose input count matches the paper row, capped so
// ATPG stays tractable. The same (benchmark, FlowSeed) always yields
// the same netlist.
func (f *TestFlow) GenerateCircuit(ctx context.Context, benchmark string) (*Circuit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind := iscasgen.StuckAt
	if f.o.tests == FlowPathDelay {
		kind = iscasgen.PathDelay
	}
	m, err := iscasgen.Find(benchmark, kind)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidCircuit, err)
	}
	return iscasgen.Circuit(m, f.o.seed)
}

// ParseCircuit parses a .bench netlist under the flow size caps.
// Malformed or oversized netlists answer an error wrapping
// ErrInvalidCircuit.
func (f *TestFlow) ParseCircuit(name string, r io.Reader) (*Circuit, error) {
	c, err := circuit.ParseBenchLimited(name, r, circuit.BenchLimits{
		MaxSignals: FlowMaxSignals,
		MaxInputs:  FlowMaxInputs,
		MaxFanin:   FlowMaxFanin,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidCircuit, err)
	}
	return c, nil
}

// FlowTestsResult is the outcome of the flow's test-generation stage.
type FlowTestsResult struct {
	// Set holds the generated patterns (two-pattern tests flattened
	// v1, v2, v1, v2, ... in path-delay mode).
	Set *TestSet `json:"-"`
	// Kind is FlowStuckAt or FlowPathDelay.
	Kind     string `json:"kind"`
	Patterns int    `json:"patterns"`
	// Targets counts the faults (stuck-at) or path×direction tests
	// (path-delay) attempted; Detected of them have tests.
	Targets    int `json:"targets"`
	Detected   int `json:"detected"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
	// CoveragePercent is 100·Detected/Targets — the value exported on
	// tcompd_flow_coverage_percent.
	CoveragePercent float64 `json:"coverage_percent"`
}

// RunATPG generates the flow's test set for c: PODEM stuck-at ATPG with
// don't-care maximization, or robust path-delay two-pattern tests when
// the flow was built with FlowTests(FlowPathDelay). The span "atpg"
// covers the stage on the caller's trace.
func (f *TestFlow) RunATPG(ctx context.Context, c *Circuit) (*FlowTestsResult, error) {
	ctx, sp := obs.StartSpan(ctx, "atpg")
	defer sp.End()

	out := &FlowTestsResult{Kind: f.o.tests}
	switch f.o.tests {
	case FlowStuckAt, "":
		res, err := atpg.GenerateCtx(ctx, c, atpg.DefaultOptions())
		if err != nil {
			sp.SetError(err)
			return nil, err
		}
		out.Set = res.Tests
		out.Targets = res.Faults
		out.Detected = res.Detected
		out.Untestable = res.Untestable
		out.Aborted = res.Aborted
		out.Kind = FlowStuckAt
	case FlowPathDelay:
		opt := delay.DefaultOptions()
		opt.MaxPaths = f.o.maxPaths
		res, err := delay.Generate(c, opt)
		if err != nil {
			sp.SetError(err)
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			sp.SetError(err)
			return nil, err
		}
		out.Set = res.Tests
		out.Targets = res.Paths
		out.Detected = res.Robust
		out.Untestable = res.Untestable
	default:
		err := fmt.Errorf("tcomp: unknown flow test kind %q", f.o.tests)
		sp.SetError(err)
		return nil, err
	}
	out.Patterns = out.Set.NumPatterns()
	if out.Targets > 0 {
		out.CoveragePercent = 100 * float64(out.Detected) / float64(out.Targets)
	}
	if out.Patterns == 0 {
		err := fmt.Errorf("tcomp: test generation produced no patterns (%d targets, %d aborted)",
			out.Targets, out.Aborted)
		sp.SetError(err)
		return nil, err
	}
	sp.SetAttrs(
		obs.String("kind", out.Kind),
		obs.Int("patterns", int64(out.Patterns)),
		obs.Int("targets", int64(out.Targets)),
	)
	return out, nil
}

// FlowCodecRate is one advisor race entry: a codec's size accounting on
// the sampled prefix.
type FlowCodecRate struct {
	Codec          string  `json:"codec"`
	OriginalBits   int     `json:"original_bits"`
	CompressedBits int     `json:"compressed_bits"`
	RatePercent    float64 `json:"rate_percent"`
	// Err records a codec that failed on the sample (it is excluded from
	// the winner choice but kept in the report).
	Err string `json:"error,omitempty"`
}

// FlowRace is the advisor's verdict: every raced codec's rate on the
// sample prefix, the overall winner (lowest compressed size; ties go to
// the alphabetically first codec), and the best block-family codec —
// the one whose MV set and prefix code the on-chip decoder is
// synthesized from.
type FlowRace struct {
	// SamplePatterns is the prefix length the codecs raced on.
	SamplePatterns int             `json:"sample_patterns"`
	Entries        []FlowCodecRate `json:"entries"`
	Winner         string          `json:"winner"`
	// BlockWinner is the best of the block codecs (ea, 9c, 9chc) in the
	// race — the decoder source. Defaults to "9c" when the race was
	// restricted to non-block codecs.
	BlockWinner string `json:"block_winner"`
}

// flowBlockCodecs is the block family: codecs whose parameter blob
// decodes to an (MV set, prefix code) pair the hardware decoder model
// understands.
var flowBlockCodecs = map[string]bool{"ea": true, "9c": true, "9chc": true}

// RaceCodecs runs the codec advisor: every selected codec compresses
// the same sampled prefix of ts, one deterministic seed per codec, and
// the lowest compressed size wins. The entrants run on a
// pipeline.Ordered pool of FlowWorkers goroutines (default GOMAXPROCS),
// which takes no token from the shared limiter. One span
// "race <codec>" per codec, the pool's span for that entrant, covers
// the stage on the caller's trace.
func (f *TestFlow) RaceCodecs(ctx context.Context, ts *TestSet) (*FlowRace, error) {
	names := f.o.codecs
	if len(names) == 0 {
		names = Codecs()
	}
	sample := ts
	n := f.o.sample
	if n > 0 && n < ts.NumPatterns() {
		sample = NewTestSet(ts.Width)
		for _, p := range ts.Patterns[:n] {
			sample.Add(p)
		}
	}
	race := &FlowRace{SamplePatterns: sample.NumPatterns()}

	// One job per codec; the Ordered sink collects entries in submit
	// order, so the report (and the tie-break below) is independent of
	// the worker count.
	ord := pipeline.NewOrdered(ctx, pipeline.Config{
		Workers:  f.o.workers,
		RootSeed: f.stageSeed(flowStageRace),
	}, func(res pipeline.Result[FlowCodecRate]) error {
		if res.Err != nil {
			return res.Err
		}
		race.Entries = append(race.Entries, res.Value)
		return nil
	})
	for _, name := range names {
		name := name
		err := ord.Submit("race "+name, func(ctx context.Context, seed int64) (FlowCodecRate, error) {
			entry := FlowCodecRate{Codec: name}
			codec, err := Lookup(name)
			if err != nil {
				return entry, err // unknown codec: fail the race, not just the entry
			}
			sp := obs.SpanFromContext(ctx) // the pool's "race <codec>" span
			opts := append(append([]Option(nil), f.o.codecOpt...), WithWorkers(1), WithSeed(seed))
			art, err := codec.Compress(ctx, sample, opts...)
			if err != nil {
				// A codec that cannot handle the sample loses the race but
				// does not abort it — unless the flow itself is cancelled.
				sp.SetError(err)
				if ctx.Err() != nil {
					return entry, ctx.Err()
				}
				entry.Err = err.Error()
				return entry, nil
			}
			entry.OriginalBits = art.OriginalBits
			entry.CompressedBits = art.CompressedBits
			entry.RatePercent = art.RatePercent()
			sp.SetAttrs(obs.Int("compressed_bits", int64(art.CompressedBits)))
			return entry, nil
		})
		if err != nil {
			ord.Close()
			return nil, err
		}
	}
	if err := ord.Close(); err != nil {
		return nil, err
	}

	bestBits, blockBits := -1, -1
	for _, e := range race.Entries {
		if e.Err != "" {
			continue
		}
		if bestBits < 0 || e.CompressedBits < bestBits {
			bestBits, race.Winner = e.CompressedBits, e.Codec
		}
		if flowBlockCodecs[e.Codec] && (blockBits < 0 || e.CompressedBits < blockBits) {
			blockBits, race.BlockWinner = e.CompressedBits, e.Codec
		}
	}
	if race.Winner == "" {
		return nil, fmt.Errorf("tcomp: every codec failed the advisor race")
	}
	if race.BlockWinner == "" {
		race.BlockWinner = "9c"
	}
	return race, nil
}

// FlowDecoder describes the synthesized Verilog decoder.
type FlowDecoder struct {
	// Codec is the block codec whose full-set compression the decoder
	// was synthesized from (the race's BlockWinner).
	Codec  string `json:"codec"`
	Module string `json:"module"`
	// K is the decoder's block length; States / MVTableBits /
	// GateEquivalents are the first-order hardware cost model.
	K               int     `json:"k"`
	States          int     `json:"states"`
	MVTableBits     int     `json:"mv_table_bits"`
	GateEquivalents float64 `json:"gate_equivalents"`
	// RatePercent is the block artifact's own whole-set compression rate
	// (it can differ from the winner container's rate).
	RatePercent float64 `json:"rate_percent"`
}

// EmitDecoder synthesizes the on-chip decoder for a block-codec
// artifact (ea, 9c, 9chc — anything whose Params decode to an MV set
// and prefix code) and writes it as a synthesizable Verilog module. The
// span "emit-verilog" covers the stage on the caller's trace.
func (f *TestFlow) EmitDecoder(ctx context.Context, a *Artifact, w io.Writer, module string) (*FlowDecoder, error) {
	_, sp := obs.StartSpan(ctx, "emit-verilog")
	defer sp.End()

	set, code, err := container.DecodeBlockParams(a.Params)
	if err != nil {
		err = fmt.Errorf("tcomp: artifact of codec %q has no decodable MV table: %w", a.Codec, err)
		sp.SetError(err)
		return nil, err
	}
	fsm, err := decoder.New(set, code)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	if err := fsm.WriteVerilog(w, module); err != nil {
		sp.SetError(err)
		return nil, err
	}
	area := fsm.Area()
	info := &FlowDecoder{
		Codec:           a.Codec,
		Module:          module,
		K:               set.K,
		States:          area.States,
		MVTableBits:     area.MVTableBits,
		GateEquivalents: area.GateEquivalents,
		RatePercent:     a.RatePercent(),
	}
	sp.SetAttrs(obs.String("module", module), obs.Int("states", int64(area.States)))
	return info, nil
}

// FlowContainer is the size accounting of the flow's winner container.
type FlowContainer struct {
	Codec          string  `json:"codec"`
	Format         string  `json:"format"` // always "v3"
	Chunks         int     `json:"chunks"`
	Patterns       int     `json:"patterns"`
	OriginalBits   int     `json:"original_bits"`
	CompressedBits int     `json:"compressed_bits"`
	RatePercent    float64 `json:"rate_percent"`
}

// FlowResult is the complete product of TestFlow.Run: the report
// (everything JSON-tagged) plus the two binary artifacts.
type FlowResult struct {
	CircuitName    string `json:"circuit"`
	CircuitInputs  int    `json:"circuit_inputs"`
	CircuitGates   int    `json:"circuit_gates"`
	CircuitOutputs int    `json:"circuit_outputs"`

	Tests     *FlowTestsResult `json:"tests"`
	Race      *FlowRace        `json:"race"`
	Container FlowContainer    `json:"container"`
	Decoder   *FlowDecoder     `json:"decoder"`

	// Verified records that both artifacts round-tripped losslessly
	// in-process before being returned: the container decompressed back
	// to a set compatible with the generated patterns, and the decoder
	// FSM's source artifact did too.
	Verified bool `json:"verified"`

	// StageSeconds is the wall-clock per stage (atpg, race, compress,
	// emit-verilog).
	StageSeconds map[string]float64 `json:"stage_seconds"`

	// ContainerBytes is the v3 chunked container of the winner codec;
	// VerilogBytes the synthesizable decoder module. Stored as separate
	// content-addressed artifacts by the daemon, hence excluded from the
	// report JSON.
	ContainerBytes []byte `json:"-"`
	VerilogBytes   []byte `json:"-"`
}

// Run executes the full flow on c: test generation, the advisor race,
// full-set compression with the winner into a v3 container, and decoder
// synthesis from the best block codec. Both artifacts are verified
// losslessly before Run returns. The result is byte-identical for a
// given (circuit, flow options) at any worker count.
func (f *TestFlow) Run(ctx context.Context, c *Circuit) (*FlowResult, error) {
	secs := make(map[string]float64)
	res := &FlowResult{
		CircuitName:    c.Name,
		CircuitInputs:  len(c.Inputs),
		CircuitGates:   c.NumGates(),
		CircuitOutputs: len(c.Outputs),
		StageSeconds:   secs,
	}

	// Run times each stage once, handing the one duration to the
	// report and to the observer hook.
	start := time.Now()
	tests, err := f.RunATPG(ctx, c)
	if err != nil {
		return nil, err
	}
	res.Tests = tests
	f.stage("atpg", start, secs)

	start = time.Now()
	race, err := f.RaceCodecs(ctx, tests.Set)
	if err != nil {
		return nil, err
	}
	res.Race = race
	f.stage("race", start, secs)

	// Full-set compression with the winner, as a v3 chunked container.
	start = time.Now()
	var buf bytes.Buffer
	opts := append(append([]Option(nil), f.o.codecOpt...),
		WithWorkers(f.o.workers), WithSeed(f.stageSeed(flowStageCompress)))
	sw, err := NewStreamWriter(ctx, &buf, race.Winner, tests.Set.Width, opts...)
	if err != nil {
		return nil, err
	}
	if err := sw.WriteSet(tests.Set); err != nil {
		sw.Close()
		return nil, err
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	res.Container = FlowContainer{
		Codec:          race.Winner,
		Format:         "v3",
		Chunks:         sw.Chunks(),
		Patterns:       sw.Patterns(),
		OriginalBits:   sw.OriginalBits(),
		CompressedBits: sw.CompressedBits(),
		RatePercent:    sw.RatePercent(),
	}
	res.ContainerBytes = buf.Bytes()
	f.stage("compress", start, secs)

	// Verify the container round-trips losslessly before anyone stores
	// it.
	sr, err := NewStreamReader(bytes.NewReader(res.ContainerBytes))
	if err != nil {
		return nil, fmt.Errorf("tcomp: flow container verification: %w", err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tcomp: flow container verification: %w", err)
	}
	if !VerifyLossless(tests.Set, dec) {
		return nil, fmt.Errorf("tcomp: flow container lost specified bits (codec %s)", race.Winner)
	}

	// Decoder synthesis from the best block codec's whole-set artifact.
	// The stage timing includes the decoder-source compression: it is
	// what the emit step costs beyond the winner container.
	start = time.Now()
	blockCodec, err := Lookup(race.BlockWinner)
	if err != nil {
		return nil, err
	}
	blockOpts := append(append([]Option(nil), f.o.codecOpt...),
		WithWorkers(f.o.workers), WithSeed(f.stageSeed(flowStageDecoder)))
	blockArt, err := blockCodec.Compress(ctx, tests.Set, blockOpts...)
	if err != nil {
		return nil, fmt.Errorf("tcomp: decoder-source compression (%s): %w", race.BlockWinner, err)
	}
	blockDec, err := Decompress(blockArt)
	if err != nil {
		return nil, fmt.Errorf("tcomp: decoder-source verification: %w", err)
	}
	if !VerifyLossless(tests.Set, blockDec) {
		return nil, fmt.Errorf("tcomp: decoder-source artifact lost specified bits (codec %s)", race.BlockWinner)
	}
	var vbuf bytes.Buffer
	info, err := f.EmitDecoder(ctx, blockArt, &vbuf, FlowDecoderModule)
	if err != nil {
		return nil, err
	}
	res.Decoder = info
	f.stage("emit-verilog", start, secs)
	res.VerilogBytes = vbuf.Bytes()
	res.Verified = true
	return res, nil
}

// FlowDecoderModule is the Verilog module name of flow-emitted
// decoders; the CI structural check greps for it.
const FlowDecoderModule = "tcomp_flow_decoder"

// Benchmark is one row of the ISCAS-style registry as served by
// GET /v1/benchmarks: the circuit name and kind, the paper's test-set
// dimensions, and its published compression rates (percent).
type Benchmark struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Width    int    `json:"width"`
	Bits     int    `json:"bits"`
	Patterns int    `json:"patterns"`
	// Published rates: Paper9C/Paper9CHC are the baselines; PaperEA and
	// PaperEA2 the paper's EA columns (Table 1: EA / EA-Best; Table 2:
	// EA1 / EA2).
	Paper9C   float64 `json:"paper_9c"`
	Paper9CHC float64 `json:"paper_9chc"`
	PaperEA   float64 `json:"paper_ea"`
	PaperEA2  float64 `json:"paper_ea2"`
}

// FindBenchmark validates that name is a registry benchmark of the
// given test kind ("" means stuck-at). The error wraps
// ErrInvalidCircuit, so daemons classify an unknown benchmark exactly
// like a malformed netlist.
func FindBenchmark(name, kind string) error {
	k := iscasgen.StuckAt
	if kind == FlowPathDelay {
		k = iscasgen.PathDelay
	}
	if _, err := iscasgen.Find(name, k); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCircuit, err)
	}
	return nil
}

// Benchmarks lists the paper's experiment registry — Table 1 (stuck-at)
// followed by Table 2 (path-delay). Any Name is a valid flow benchmark
// (the flow generates a matching-width circuit for it).
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, m := range append(iscasgen.Table1(), iscasgen.Table2()...) {
		out = append(out, Benchmark{
			Name:      m.Name,
			Kind:      m.Kind.String(),
			Width:     m.Width,
			Bits:      m.Bits,
			Patterns:  m.Patterns(),
			Paper9C:   m.Paper9C,
			Paper9CHC: m.Paper9CHC,
			PaperEA:   m.PaperEA,
			PaperEA2:  m.PaperEA2,
		})
	}
	return out
}
