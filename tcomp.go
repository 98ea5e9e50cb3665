// Package tcomp is the public facade of the test-compression library: an
// implementation of "Evolutionary Optimization in Code-Based Test
// Compression" (Polian, Czutro, Becker; DATE 2005) together with the
// substrates it depends on — ISCAS-style circuits, stuck-at ATPG with
// don't-care maximization, robust path-delay test generation, the 9C
// baseline, classical run-length-family coders, and an on-chip decoder
// model.
//
// Every scheme implements the Codec interface and is accessible through
// the package registry; artifacts serialize to the universal container
// format and round-trip regardless of method:
//
//	ts, _ := tcomp.ReadTestSet(file)
//	codec, _ := tcomp.Lookup("ea") // or "9c", "9chc", "golomb", "fdr", "rl", "selhuff"
//	art, _ := codec.Compress(ctx, ts, tcomp.WithSeed(1))
//	fmt.Printf("compression rate: %.1f%%\n", art.RatePercent())
//	tcomp.Write(f, art)     // self-describing container v2
//	art, _ = tcomp.Open(f)  // codec auto-detected from the header
//	dec, _ := tcomp.Decompress(art)
//
// See examples/ for end-to-end pipelines (ATPG → compression →
// decompression → fault-coverage verification) and
// examples/codes_comparison for a sweep over tcomp.Codecs().
package tcomp

import (
	"io"

	"repro/internal/blockcode"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// TestSet is a set of scan test patterns over {0,1,X}.
type TestSet = testset.TestSet

// Vector is a packed ternary vector.
type Vector = tritvec.Vector

// EAParams configures the evolutionary compressor.
type EAParams = core.Params

// EAResult is the outcome of evolutionary compression.
type EAResult = core.Result

// BlockResult is the outcome of a single fixed-MV-set compression.
type BlockResult = blockcode.Result

// NewTestSet returns an empty test set for circuits with n inputs.
func NewTestSet(n int) *TestSet { return testset.New(n) }

// ReadTestSet parses a test set in the textual format (header "width
// count", then one pattern of 0/1/X per line) or the packed TSET binary
// format, which it recognises by its magic.
func ReadTestSet(r io.Reader) (*TestSet, error) { return testset.Read(r) }

// ParseTestSet builds a test set from pattern strings.
func ParseTestSet(patterns ...string) (*TestSet, error) { return testset.ParseStrings(patterns...) }

// DefaultEAParams returns the paper's default configuration: K=12, L=64,
// S=10, C=5, crossover 30%, mutation 30%, inversion 10%, 5 runs, one MV
// pinned to all-U.
func DefaultEAParams(seed int64) EAParams { return core.DefaultParams(seed) }

// CompressEA compresses ts with evolutionary MV optimization (the paper's
// proposed method). It is a thin wrapper kept for convenience; the
// registry equivalent is Lookup("ea").Compress(ctx, ts,
// WithEAParams(p)), whose artifact additionally serializes via Write.
func CompressEA(ts *TestSet, p EAParams) (*EAResult, error) { return core.Compress(ts, p) }

// VerifyLossless checks that decoded preserves every specified bit of
// original.
func VerifyLossless(original, decoded *TestSet) bool { return original.Compatible(decoded) }

// NewDecoderFSM synthesizes the on-chip decoder model for a compression
// result: its Run decodes a payload through the same block decoder as
// the codec and reports the hardware's cycles, and its Area and
// WriteVerilog give the decoder's cost and RTL.
func NewDecoderFSM(res *BlockResult) (*decoder.FSM, error) {
	return decoder.New(res.Set, res.Code)
}
