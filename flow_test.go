package tcomp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// fastFlowOptions keeps the EA small enough for unit tests while still
// racing every codec.
func fastFlowOptions(extra ...FlowOption) []FlowOption {
	p := DefaultEAParams(1)
	p.Runs = 1
	p.EA.MaxGenerations = 25
	p.EA.MaxNoImprove = 8
	opts := []FlowOption{FlowCodecOptions(WithEAParams(p))}
	return append(opts, extra...)
}

func TestFlowRunEndToEnd(t *testing.T) {
	observed := map[string][]float64{}
	flow := NewTestFlow(fastFlowOptions(FlowSeed(7), FlowSamplePatterns(24),
		FlowStageObserver(func(stage string, seconds float64) { observed[stage] = append(observed[stage], seconds) }))...)
	c, err := flow.GenerateCircuit(context.Background(), "s298")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("flow result not verified")
	}
	if res.Tests.Patterns == 0 || res.Tests.CoveragePercent <= 0 {
		t.Fatalf("implausible test stage: %+v", res.Tests)
	}
	if len(res.Race.Entries) != len(Codecs()) {
		t.Fatalf("race covered %d codecs, want %d", len(res.Race.Entries), len(Codecs()))
	}
	if res.Race.Winner == "" || res.Race.BlockWinner == "" {
		t.Fatalf("race picked no winner: %+v", res.Race)
	}
	if len(res.ContainerBytes) == 0 || len(res.VerilogBytes) == 0 {
		t.Fatal("missing artifacts")
	}
	if !strings.Contains(string(res.VerilogBytes), "module "+FlowDecoderModule) {
		t.Fatal("verilog artifact missing flow decoder module")
	}
	// The container must decompress back to the generated patterns.
	sr, err := NewStreamReader(bytes.NewReader(res.ContainerBytes))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyLossless(res.Tests.Set, dec) {
		t.Fatal("container round trip lost specified bits")
	}
	// Run times each stage once: the observer sees every stage exactly
	// once, with the very duration the report holds.
	for _, stage := range []string{"atpg", "race", "compress", "emit-verilog"} {
		secs, ok := res.StageSeconds[stage]
		if !ok {
			t.Errorf("missing stage timing %q", stage)
		}
		if got := observed[stage]; len(got) != 1 || got[0] != secs {
			t.Errorf("stage %s: observer saw %v, report holds %v", stage, got, secs)
		}
	}
}

// TestFlowDeterministicAcrossWorkers is the acceptance criterion:
// identical artifacts at any worker count.
func TestFlowDeterministicAcrossWorkers(t *testing.T) {
	var outs [][2][]byte
	for _, workers := range []int{1, 4} {
		flow := NewTestFlow(fastFlowOptions(FlowSeed(11), FlowWorkers(workers), FlowSamplePatterns(24))...)
		c, err := flow.GenerateCircuit(context.Background(), "s349")
		if err != nil {
			t.Fatal(err)
		}
		res, err := flow.Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, [2][]byte{res.ContainerBytes, res.VerilogBytes})
	}
	if !bytes.Equal(outs[0][0], outs[1][0]) {
		t.Error("container differs between 1 and 4 workers")
	}
	if !bytes.Equal(outs[0][1], outs[1][1]) {
		t.Error("verilog differs between 1 and 4 workers")
	}
}

func TestFlowGenerateCircuitUnknownBenchmark(t *testing.T) {
	flow := NewTestFlow()
	_, err := flow.GenerateCircuit(context.Background(), "nope")
	if !errors.Is(err, ErrInvalidCircuit) {
		t.Fatalf("err = %v, want ErrInvalidCircuit", err)
	}
}

func TestFlowParseCircuitCaps(t *testing.T) {
	flow := NewTestFlow()

	// Malformed netlist.
	if _, err := flow.ParseCircuit("bad", strings.NewReader("G1 := garbage")); !errors.Is(err, ErrInvalidCircuit) {
		t.Fatalf("malformed: err = %v, want ErrInvalidCircuit", err)
	}

	// Hostile input count: more inputs than FlowMaxInputs must be
	// rejected while scanning, not after allocation.
	var hostile strings.Builder
	for i := 0; i <= FlowMaxInputs; i++ {
		hostile.WriteString("INPUT(G")
		hostile.WriteString(strings.Repeat("9", 1+i%3))
		hostile.WriteByte('_')
		for _, d := range []byte{byte('0' + i%10), byte('0' + (i / 10 % 10)), byte('0' + (i / 100 % 10)), byte('0' + (i / 1000 % 10))} {
			hostile.WriteByte(d)
		}
		hostile.WriteString(")\n")
	}
	if _, err := flow.ParseCircuit("hostile", strings.NewReader(hostile.String())); !errors.Is(err, ErrInvalidCircuit) {
		t.Fatalf("oversized: err = %v, want ErrInvalidCircuit", err)
	}

	// A valid small netlist parses.
	bench := "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nY = NAND(A, B)\n"
	c, err := flow.ParseCircuit("tiny", strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || c.NumGates() != 1 {
		t.Fatalf("parsed %d inputs / %d gates", len(c.Inputs), c.NumGates())
	}
}

func TestFlowPathDelayMode(t *testing.T) {
	flow := NewTestFlow(fastFlowOptions(
		FlowSeed(3), FlowTests(FlowPathDelay), FlowSamplePatterns(16), FlowMaxPaths(120))...)
	c, err := flow.GenerateCircuit(context.Background(), "s298")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests.Kind != FlowPathDelay {
		t.Fatalf("kind = %q", res.Tests.Kind)
	}
	if res.Tests.Patterns%2 != 0 {
		t.Fatalf("odd pattern count %d for two-pattern tests", res.Tests.Patterns)
	}
}

func TestFlowCancellation(t *testing.T) {
	flow := NewTestFlow(fastFlowOptions(FlowSeed(5))...)
	c, err := flow.GenerateCircuit(context.Background(), "s510")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := flow.Run(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBenchmarksRegistry(t *testing.T) {
	bms := Benchmarks()
	if len(bms) != 39+29 {
		t.Fatalf("benchmark rows = %d, want 68", len(bms))
	}
	seen := map[string]bool{}
	for _, b := range bms {
		if b.Name == "" || b.Width <= 0 || b.Patterns <= 0 {
			t.Fatalf("bad row %+v", b)
		}
		if b.Kind != FlowStuckAt && b.Kind != FlowPathDelay {
			t.Fatalf("bad kind %q", b.Kind)
		}
		seen[b.Kind+"/"+b.Name] = true
	}
	if !seen["stuck-at/s510"] || !seen["path-delay/s27"] {
		t.Fatal("expected registry rows missing")
	}
}

// spanRecorder is a SpanExporter that keeps every finished span.
type spanRecorder struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (r *spanRecorder) ExportSpans(spans []obs.SpanData) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spans...)
	return nil
}

func (r *spanRecorder) Shutdown(context.Context) error { return nil }

// TestRaceCodecsOneSpanPerCodec: a traced race exports exactly one
// "race <codec>" span per codec, parented on the caller's span and
// carrying the entrant's compressed size, with the codec's
// "compress <codec>" span directly under it.
func TestRaceCodecsOneSpanPerCodec(t *testing.T) {
	codecs := []string{"golomb", "fdr", "9c"}
	rec := &spanRecorder{}
	ctx, caller := obs.NewTracer(rec, 1).StartRoot(context.Background(), "caller", nil)
	flow := NewTestFlow(fastFlowOptions(FlowCodecs(codecs...), FlowWorkers(2))...)
	if _, err := flow.RaceCodecs(ctx, exampleTestSet(t, 3)); err != nil {
		t.Fatal(err)
	}
	caller.End()
	for _, name := range codecs {
		var race []obs.SpanData
		for _, s := range rec.spans {
			if s.Name == "race "+name {
				race = append(race, s)
			}
		}
		if len(race) != 1 {
			t.Errorf("%d spans named %q, want 1", len(race), "race "+name)
			continue
		}
		if race[0].Parent != caller.TraceContext().SpanID {
			t.Errorf("span %q is not a child of the caller's span", race[0].Name)
		}
		bits := false
		for _, a := range race[0].Attrs {
			bits = bits || a.Key == "compressed_bits"
		}
		if !bits {
			t.Errorf("span %q carries no compressed_bits attribute", race[0].Name)
		}
		compress := 0
		for _, s := range rec.spans {
			if s.Name == "compress "+name && s.Parent == race[0].SpanID {
				compress++
			}
		}
		if compress != 1 {
			t.Errorf("%d %q spans under %q, want 1", compress, "compress "+name, race[0].Name)
		}
	}
}
