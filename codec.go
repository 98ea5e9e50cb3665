package tcomp

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/obs"
	"repro/internal/runlength"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Codec is the uniform interface every compression scheme implements:
// the paper's EA-optimized matching vectors, the 9C / 9C+HC baselines,
// and the run-length-family coders its related-work section compares
// against. Compress produces a self-contained Artifact; Decompress
// reconstructs a fully specified test set from one (its own or any
// artifact with the codec's name, e.g. one read back via Open).
//
// Implementations are registered at init time; obtain one with Lookup
// and enumerate them with Codecs:
//
//	codec, _ := tcomp.Lookup("golomb")
//	art, _ := codec.Compress(ctx, ts, tcomp.WithSeed(1))
//	tcomp.Write(f, art)                  // universal container v2
//	...
//	art, _ = tcomp.Open(f)               // any codec, auto-detected
//	dec, _ := tcomp.Decompress(art)      // dispatches on art.Codec
type Codec interface {
	// Name returns the codec's registry name (lowercase, stable; it is
	// written into the container header).
	Name() string
	// Compress encodes ts. Options a codec does not understand are
	// ignored; ctx cancellation is honored (threaded down to the
	// pipeline engine for the EA).
	Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error)
	// Decompress reconstructs the fully specified test set from an
	// artifact produced by (or parsed for) this codec.
	Decompress(a *Artifact) (*TestSet, error)
}

// codec is every built-in scheme's Codec. Each registered value supplies
// only its encode step (test set → parameter blob and payload) and its
// decode step (parameter blob and payload reader → flat string); the
// context check, the Artifact fields and the one testset.FromFlat call
// are here, once.
type codec struct {
	name   string
	encode func(ctx context.Context, ts *TestSet, o options) (encoded, error)
	decode func(params []byte, r *bitstream.Reader, totalBits int) (tritvec.Vector, error)
}

// encoded is what an encode step produces: the parameter blob as stored
// in the container header, the payload, and the scheme's own result for
// Artifact.Extra.
type encoded struct {
	params  []byte
	payload *bitstream.Writer
	extra   any
}

func (c *codec) Name() string { return c.name }

func (c *codec) Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	enc, err := c.encode(ctx, ts, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Codec:          c.name,
		Width:          ts.Width,
		Patterns:       ts.NumPatterns(),
		OriginalBits:   ts.TotalBits(),
		CompressedBits: enc.payload.Len(),
		Params:         enc.params,
		Payload:        enc.payload.Bytes(),
		NBits:          enc.payload.Len(),
		Extra:          enc.extra,
	}, nil
}

func (c *codec) Decompress(a *Artifact) (*TestSet, error) {
	flat, err := c.decode(a.Params, a.BitReader(), a.Width*a.Patterns)
	if err != nil {
		return nil, err
	}
	return testset.FromFlat(flat, a.Width)
}

// options collects every knob a codec may consult. Each codec documents
// which fields it reads; unknown fields are ignored, so one option list
// can be passed to all codecs (as examples/codes_comparison does).
type options struct {
	seed      int64
	seedSet   bool
	blockLen  int
	mvCount   int
	runs      int
	workers   int
	golombM   int
	dictSize  int
	counterW  int
	chunkPats int
	ea        *EAParams
}

func buildOptions(opts []Option) options {
	o := options{seed: 1}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// Option configures a Compress call.
type Option func(*options)

// WithSeed sets the random seed (default 1). Read by: ea. An explicit
// WithSeed overrides the seed inside WithEAParams regardless of option
// order.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed, o.seedSet = seed, true }
}

// WithBlockLen sets the input block length K (0 = codec default: ea 12,
// 9c/9chc 8, selhuff 8). Read by: ea, 9c, 9chc, selhuff.
func WithBlockLen(k int) Option { return func(o *options) { o.blockLen = k } }

// WithWorkers bounds pipeline-engine parallelism (0 = one worker per
// CPU, 1 = serial; results are identical at any setting). Read by: ea,
// for its parallel runs, and NewStreamWriter, which sizes its chunk
// pool from it for every codec.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithEAParams replaces the full evolutionary-compressor configuration.
// WithSeed/WithBlockLen/WithMVCount/WithRuns/WithWorkers applied in the
// same call refine it afterwards. Read by: ea.
func WithEAParams(p EAParams) Option { return func(o *options) { o.ea = &p } }

// WithMVCount sets the number of matching vectors L (0 = default 64).
// Read by: ea.
func WithMVCount(l int) Option { return func(o *options) { o.mvCount = l } }

// WithRuns sets the number of independent EA runs (0 = default 5).
// Read by: ea.
func WithRuns(n int) Option { return func(o *options) { o.runs = n } }

// WithGolombM pins the Golomb parameter M (0 = search powers of two up
// to 256 and keep the best). Read by: golomb.
func WithGolombM(m int) Option { return func(o *options) { o.golombM = m } }

// WithDictSize sets the selective-Huffman dictionary size D (0 =
// default 8). Read by: selhuff.
func WithDictSize(d int) Option { return func(o *options) { o.dictSize = d } }

// WithCounterWidth sets the run-length counter width b in bits (0 =
// default 4). Read by: rl.
func WithCounterWidth(b int) Option { return func(o *options) { o.counterW = b } }

// WithChunkPatterns sets the number of test patterns per chunk frame in
// the streaming path (0 = size chunks to about DefaultChunkBits original
// bits). Read by: NewStreamWriter; codecs ignore it.
func WithChunkPatterns(n int) Option { return func(o *options) { o.chunkPats = n } }

var (
	registryMu sync.RWMutex
	registry   = map[string]Codec{}
)

// Register adds a codec to the package registry. It panics if the codec
// is nil, its name is empty, or the name is already taken — codec names
// are a global namespace baked into container files, so a silent
// overwrite would corrupt round-trips.
func Register(c Codec) {
	if c == nil {
		panic("tcomp: Register(nil)")
	}
	name := c.Name()
	if name == "" {
		panic("tcomp: Register with empty codec name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("tcomp: Register called twice for codec %q", name))
	}
	registry[name] = c
}

// Lookup returns the registered codec with the given name, wrapped so
// every Compress call records a span on the caller's trace (a no-op
// outside one). The registry stores the bare codecs, so repeated
// lookups never stack wrappers.
func Lookup(name string) (Codec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("tcomp: unknown codec %q (registered: %v)", name, codecNamesLocked())
	}
	return tracedCodec{c}, nil
}

// tracedCodec instruments Compress with a per-call span named
// "compress <codec>". Decompress has no context to carry a trace, so it
// passes through; serve's decompress handler times it at the call site.
type tracedCodec struct {
	Codec
}

func (t tracedCodec) Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error) {
	ctx, sp := obs.StartSpan(ctx, "compress "+t.Codec.Name())
	art, err := t.Codec.Compress(ctx, ts, opts...)
	sp.SetError(err)
	sp.End()
	return art, err
}

// Codecs returns the sorted names of all registered codecs.
func Codecs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return codecNamesLocked()
}

func codecNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CodecParam describes one tunable a codec reads: the functional option
// that sets it locally and the query parameter that sets it against a
// tcompd daemon. It is the machine-readable twin of the option docs
// above.
type CodecParam struct {
	Query       string `json:"query"`
	Option      string `json:"option"`
	Type        string `json:"type"`
	Default     string `json:"default"`
	Description string `json:"description"`
	// Range bounds the values a daemon accepts for this parameter. It is
	// filled from the shared param-range table (see ParamRange), so the
	// advertised schema and the server-side validation can never drift
	// apart. Nil means the full domain of Type is accepted (seed).
	Range *ParamRange `json:"range,omitempty"`
}

// ParamRange is the inclusive bound of one daemon query parameter. The
// package-level table behind LookupParamRange is the single source of
// truth: GET /v1/codecs advertises these bounds and the tcompd request
// validator enforces exactly the same ones. Codec-internal validation is
// tied in, too — e.g. the "b" row is defined in terms of the runlength
// package's own MinCounterWidth/MaxCounterWidth constants.
type ParamRange struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// paramRanges maps daemon query keys to their accepted ranges. An
// explicit 0 remains the "use the codec default" marker for every
// parameter whose Min is above zero.
var paramRanges = map[string]ParamRange{
	"k":       {1, 64},
	"l":       {1, 1 << 16},
	"runs":    {1, 4096},
	"workers": {0, 4096},
	"m":       {1, maxGolombM},
	"d":       {1, 1 << 16},
	"b":       {runlength.MinCounterWidth, runlength.MaxCounterWidth},
	"chunk":   {1, container.MaxPatterns},
}

// LookupParamRange returns the shared accepted range for a daemon query
// parameter. ok is false for parameters without a bound (seed spans the
// full int64 domain) and for unknown keys.
func LookupParamRange(query string) (r ParamRange, ok bool) {
	r, ok = paramRanges[query]
	return r, ok
}

// paramOrder lists every daemon query parameter in canonical order. It
// is the single list the wire layers iterate: the tcompd request
// validators and the async job runner resolve keys through
// ParamOptions, so a parameter accepted anywhere resolves to the same
// functional option everywhere.
var paramOrder = []string{"seed", "k", "l", "runs", "workers", "m", "d", "b", "chunk"}

// ParamKeys returns the daemon query parameter keys OptionForParam
// understands, in canonical order. Callers must not mutate the result.
func ParamKeys() []string { return paramOrder }

// OptionForParam maps a daemon query parameter and its value onto the
// functional option it names. ok is false for unknown keys.
func OptionForParam(key string, v int64) (Option, bool) {
	switch key {
	case "seed":
		return WithSeed(v), true
	case "k":
		return WithBlockLen(int(v)), true
	case "l":
		return WithMVCount(int(v)), true
	case "runs":
		return WithRuns(int(v)), true
	case "workers":
		return WithWorkers(int(v)), true
	case "m":
		return WithGolombM(int(v)), true
	case "d":
		return WithDictSize(int(v)), true
	case "b":
		return WithCounterWidth(int(v)), true
	case "chunk":
		return WithChunkPatterns(int(v)), true
	}
	return nil, false
}

// ParamOptions resolves a daemon parameter map into functional options,
// keys in ParamKeys order so the list is deterministic. An explicit 0
// means "codec default"; any other value must lie inside the key's
// shared range (LookupParamRange), and a key OptionForParam does not
// know is an error. It is the one validator behind the tcompd compress,
// job and flow endpoints and the job runner, which re-checks
// journal-recovered specs.
func ParamOptions(params map[string]int64) ([]Option, error) {
	var opts []Option
	for _, key := range paramOrder {
		v, ok := params[key]
		if !ok {
			continue
		}
		if r, bounded := paramRanges[key]; bounded && v != 0 && (v < r.Min || v > r.Max) {
			return nil, fmt.Errorf("parameter %s=%d out of range [%d,%d]", key, v, r.Min, r.Max)
		}
		opt, _ := OptionForParam(key, v)
		opts = append(opts, opt)
	}
	if len(opts) != len(params) {
		for key := range params {
			if _, ok := OptionForParam(key, 0); !ok {
				return nil, fmt.Errorf("unknown parameter %q", key)
			}
		}
	}
	return opts, nil
}

// CodecInfo is one entry of the registry listing served by
// GET /v1/codecs: the codec name plus its parameter schema.
type CodecInfo struct {
	Name   string       `json:"name"`
	Params []CodecParam `json:"params"`
}

// Shared parameter rows, reused across the codecs that read them.
var (
	paramSeed = CodecParam{Query: "seed", Option: "WithSeed", Type: "int64", Default: "1", Description: "random seed; the root of the per-chunk derivation in streaming mode"}
	paramK    = func(def string) CodecParam {
		return CodecParam{Query: "k", Option: "WithBlockLen", Type: "int", Default: def, Description: "input block length K"}
	}
	paramWorkers = CodecParam{Query: "workers", Option: "WithWorkers", Type: "int", Default: "0", Description: "parallelism bound (0 = one per CPU; results identical at any setting)"}
)

// codecParamSchema maps registry names to the options each codec reads
// (mirroring the option documentation). Codecs registered by third
// parties without a row here report an empty schema.
var codecParamSchema = map[string][]CodecParam{
	"ea": {
		paramSeed,
		paramK("12"),
		{Query: "l", Option: "WithMVCount", Type: "int", Default: "64", Description: "number of matching vectors L"},
		{Query: "runs", Option: "WithRuns", Type: "int", Default: "5", Description: "independent EA runs"},
		paramWorkers,
	},
	"9c":   {paramK("8")},
	"9chc": {paramK("8")},
	"golomb": {
		{Query: "m", Option: "WithGolombM", Type: "int", Default: "0", Description: "Golomb parameter M (0 = search powers of two up to 256)"},
	},
	"fdr": {},
	"rl": {
		{Query: "b", Option: "WithCounterWidth", Type: "int", Default: "4", Description: "run-length counter width in bits"},
	},
	"selhuff": {
		paramK("8"),
		{Query: "d", Option: "WithDictSize", Type: "int", Default: "8", Description: "selective-Huffman dictionary size D"},
	},
}

// CodecSchemas returns the full registry listing with per-codec
// parameter schemas, sorted by name — the payload of GET /v1/codecs.
// Each parameter's Range is injected from the shared param-range table,
// so the listing always advertises exactly what the daemon enforces.
func CodecSchemas() []CodecInfo {
	names := Codecs()
	infos := make([]CodecInfo, 0, len(names))
	for _, name := range names {
		rows := codecParamSchema[name]
		params := make([]CodecParam, len(rows))
		for i, p := range rows {
			if r, ok := LookupParamRange(p.Query); ok {
				p.Range = &r
			}
			params[i] = p
		}
		infos = append(infos, CodecInfo{Name: name, Params: params})
	}
	return infos
}
