package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	tcomp "repro"
	"repro/internal/blockcode"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/testset"
)

// fastCodecs are the codecs measured layer by layer: every registered
// codec but the paper's ea, whose kernel has its own metrics.
var fastCodecs = []string{"9c", "9chc", "golomb", "fdr", "rl", "selhuff"}

// perLayerUnits lists every per-layer metric with its unit. A traced
// run reports all of them; a layer a workload does not exercise reads 0.
func perLayerUnits() [][2]string {
	u := [][2]string{
		{"core.compress_ms", "ms"}, {"core.evals", "count"}, {"core.generations", "count"}, {"core.evals_per_s", "1/s"},
		{"core.mvs_us_per_eval", "us"}, {"blockcode.cover_us_per_eval", "us"}, {"huffman.build_us_per_eval", "us"},
		{"blockcode.unique_block_pct", "%"}, {"core.alloc_kb_per_eval", "KB"},
		{"testset.parse_mb_per_s", "MB/s"}, {"testset.format_mb_per_s", "MB/s"}, {"testset.verify_ms", "ms"},
	}
	for _, c := range fastCodecs {
		u = append(u, [2]string{"codec." + c + ".encode_mb_per_s", "MB/s"},
			[2]string{"codec." + c + ".decode_mb_per_s", "MB/s"},
			[2]string{"codec." + c + ".rate_pct", "%"})
	}
	return append(u, [][2]string{
		{"stream.frame_ms", "ms"}, {"container.v2_ms", "ms"},
		{"serve.handler_self_ms", "ms"}, {"serve.cache_hit_pct", "%"}, {"serve.bytes_in_per_op", "B"}, {"serve.bytes_out_per_op", "B"},
		{"client.http_ms", "ms"},
		{"jobs.queue_wait_ms", "ms"}, {"jobs.run_ms", "ms"}, {"client.poll_wait_ms", "ms"}, {"artifact.fetch_ms", "ms"},
		{"atpg.ms", "ms"}, {"atpg.patterns", "count"}, {"atpg.aborted", "count"},
		{"flow.race_ms", "ms"}, {"flow.compress_ms", "ms"}, {"flow.decoder_source_ms", "ms"}, {"decoder.emit_ms", "ms"},
		{"decoder.gate_equivalents", "count"},
		{"iscasgen.generate_ms", "ms"},
		{"trace.overhead.ops_per_s_pct", "%"}, {"trace.overhead.latency_p50_ms_pct", "%"},
	}...)
}

// layerSet collects per-layer values. It starts with every metric of
// perLayerUnits at 0, and set panics on any other name: a misspelt
// metric is a bug in the benchmark, not a new metric.
type layerSet map[string]metric

func newLayerSet() layerSet {
	l := layerSet{}
	for _, nu := range perLayerUnits() {
		l[nu[0]] = metric{0, nu[1]}
	}
	return l
}

func (l layerSet) set(name string, v float64) {
	m, ok := l[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value = v
	l[name] = m
}

func attrF(s spanRec, k string) float64 {
	switch v := s.Attrs[k].(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

func attrS(s spanRec, k string) string {
	v, _ := s.Attrs[k].(string)
	return v
}

// spanMetrics fills the metrics read straight off named spans:
// throughput of text parse and format, and each fast codec's encode and
// decode throughput and rate. Throughput is bytes (attribute "bytes")
// over the spans' summed durations.
func spanMetrics(l layerSet, spans []spanRec) {
	type acc struct{ bytes, msSum, orig, comp float64 }
	by := map[string]*acc{}
	get := func(k string) *acc {
		if by[k] == nil {
			by[k] = &acc{}
		}
		return by[k]
	}
	for _, s := range spans {
		switch s.Name {
		case "testset.parse", "testset.format":
			a := get(s.Name)
			a.bytes += attrF(s, "bytes")
			a.msSum += s.dur()
		case "codec.encode", "codec.decode":
			a := get(s.Name + "/" + attrS(s, "codec"))
			a.bytes += attrF(s, "bytes")
			a.msSum += s.dur()
			a.orig += attrF(s, "orig_bits")
			a.comp += attrF(s, "comp_bits")
		}
	}
	mbps := func(a *acc) float64 {
		if a == nil || a.msSum <= 0 {
			return 0
		}
		return a.bytes / 1e6 / (a.msSum / 1e3)
	}
	l.set("testset.parse_mb_per_s", mbps(by["testset.parse"]))
	l.set("testset.format_mb_per_s", mbps(by["testset.format"]))
	for _, c := range fastCodecs {
		enc := by["codec.encode/"+c]
		l.set("codec."+c+".encode_mb_per_s", mbps(enc))
		l.set("codec."+c+".decode_mb_per_s", mbps(by["codec.decode/"+c]))
		if enc != nil && enc.orig > 0 {
			l.set("codec."+c+".rate_pct", 100*(1-enc.comp/enc.orig))
		}
	}
}

// ledgerMetrics fills the self-time metrics from the ledger of the
// replayed operations (see ledgerOf): per operation, in milliseconds.
func ledgerMetrics(l layerSet, self map[string]float64) {
	l.set("serve.handler_self_ms", self["serve.handler"])
	l.set("client.http_ms", self["client.compress"]+self["client.decompress"]+
		self["client.compress_set"]+self["client.decompress_set"])
	l.set("stream.frame_ms", self["stream.write"]+self["stream.read"])
	l.set("container.v2_ms", self["container.write"]+self["container.open"])
	l.set("testset.verify_ms", self["testset.verify"])
}

// ledgerTable renders the mean self times by span name of the
// operations whose root span matches, largest first, with each name's
// share of the mean root span. The shares sum to 100%.
func ledgerTable(title string, spans []spanRec, root func(spanRec) bool) string {
	self, mean, n := ledgerOf(spans, root)
	if n == 0 {
		return "no operations for the ledger of " + title
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	var b strings.Builder
	fmt.Fprintf(&b, "ledger of %s (%d ops, mean root span %.3f ms):\n", title, n, mean)
	fmt.Fprintf(&b, "| span | self ms | share |\n|---|---:|---:|\n")
	sum := 0.0
	for _, k := range names {
		sum += self[k]
		fmt.Fprintf(&b, "| %s | %.3f | %.1f%% |\n", k, self[k], 100*self[k]/mean)
	}
	fmt.Fprintf(&b, "| sum | %.3f | %.1f%% |", sum, 100*sum/mean)
	return b.String()
}

// eaStats accumulates the EA compressions a traced run saw.
type eaStats struct {
	n              int
	compressMs     float64
	evals, gens    float64
	allocBytes     float64
	unique, blocks float64
	mvsUs, coverUs float64
	buildUs        float64
	kernelReplays  int
}

// addCompress records one EA compression's span duration, work counts
// and allocation.
func (e *eaStats) addCompress(durMs float64, res *core.Result, alloc uint64) {
	e.n++
	e.compressMs += durMs
	for _, r := range res.Runs {
		e.evals += float64(r.Evals)
		e.gens += float64(r.Generations)
	}
	e.allocBytes += float64(alloc)
}

// kernelRepeats is how many times each fitness-kernel step is replayed
// per EA compression; enough for each timed loop to last milliseconds.
const kernelRepeats = 200

// replayKernel times the three steps of one fitness evaluation,
// core.GenesToMVs, CoverMultiset and huffman.Build, on the block
// multiset of ts with the compression's final MV set, under span sp.
func (e *eaStats) replayKernel(sp *span, ts *testset.TestSet, res *core.Result) error {
	k, l := res.Params.K, res.Params.L
	ms := blockcode.Dedup(blockcode.Partition(ts, k))
	e.unique += float64(len(ms.Blocks))
	e.blocks += float64(ms.Total)
	genes := core.MVsToGenes(res.Final.Set.MVs, k)

	s := sp.child("core.genes_to_mvs")
	t0 := time.Now()
	var mvs []tcomp.Vector
	for r := 0; r < kernelRepeats; r++ {
		mvs = core.GenesToMVs(genes, k, l)
	}
	e.mvsUs += float64(time.Since(t0).Microseconds()) / kernelRepeats
	s.end()

	set := &blockcode.MVSet{K: k, MVs: mvs}
	s = sp.child("blockcode.cover")
	t0 = time.Now()
	var cov *blockcode.Covering
	for r := 0; r < kernelRepeats; r++ {
		cov = set.CoverMultiset(ms)
	}
	e.coverUs += float64(time.Since(t0).Microseconds()) / kernelRepeats
	s.end()
	if !cov.OK() {
		return fmt.Errorf("kernel replay: final MV set leaves %d blocks uncovered", cov.Uncovered)
	}

	s = sp.child("huffman.build")
	t0 = time.Now()
	for r := 0; r < kernelRepeats; r++ {
		if _, err := huffman.Build(cov.Freqs); err != nil {
			return fmt.Errorf("kernel replay: %w", err)
		}
	}
	e.buildUs += float64(time.Since(t0).Microseconds()) / kernelRepeats
	s.end()
	e.kernelReplays++
	return nil
}

func (e *eaStats) fill(l layerSet) {
	if e.n == 0 {
		return
	}
	n := float64(e.n)
	l.set("core.compress_ms", e.compressMs/n)
	l.set("core.evals", e.evals/n)
	l.set("core.generations", e.gens/n)
	l.set("core.evals_per_s", e.evals/(e.compressMs/1e3))
	l.set("core.alloc_kb_per_eval", e.allocBytes/1e3/e.evals)
	if e.kernelReplays > 0 {
		r := float64(e.kernelReplays)
		l.set("core.mvs_us_per_eval", e.mvsUs/r)
		l.set("blockcode.cover_us_per_eval", e.coverUs/r)
		l.set("huffman.build_us_per_eval", e.buildUs/r)
		l.set("blockcode.unique_block_pct", 100*e.unique/e.blocks)
	}
}

// timedAlloc runs fn and returns the bytes the process allocated
// meanwhile. Only meaningful when nothing else runs.
func timedAlloc(fn func() error) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, err
}

// codecAttrs labels a codec.encode or codec.decode span. bytes is the
// original test-set size, the unit of codec throughput.
func codecAttrs(s *span, name string, origBits, compBits int) {
	s.set("codec", name)
	s.set("bytes", origBits/8)
	s.set("orig_bits", origBits)
	s.set("comp_bits", compBits)
}

// encodeReplay times one codec's Compress and Decompress on ts under sp
// as codec.encode / codec.decode spans carrying the codec name, the
// original size in bytes and the bit counts.
func encodeReplay(ctx context.Context, sp *span, name string, ts *testset.TestSet, opts ...tcomp.Option) (*tcomp.Artifact, error) {
	codec, err := tcomp.Lookup(name)
	if err != nil {
		return nil, err
	}
	s := sp.child("codec.encode")
	art, err := codec.Compress(ctx, ts, opts...)
	if err != nil {
		s.end()
		return nil, fmt.Errorf("%s encode replay: %w", name, err)
	}
	codecAttrs(s, name, ts.TotalBits(), art.CompressedBits)
	s.end()
	d := sp.child("codec.decode")
	dec, err := tcomp.Decompress(art)
	codecAttrs(d, name, ts.TotalBits(), art.CompressedBits)
	d.end()
	if err != nil {
		return nil, fmt.Errorf("%s decode replay: %w", name, err)
	}
	if !ts.Compatible(dec) {
		return nil, fmt.Errorf("%s replay lost specified bits", name)
	}
	return art, nil
}
