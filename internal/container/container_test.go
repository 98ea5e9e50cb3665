package container

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/ninec"
	"repro/internal/testset"
)

func sample(t *testing.T, seed int64) (*testset.TestSet, *blockcode.Result) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ts := testset.Random(16, 30, 0.3, r)
	res, err := ninec.CompressHC(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ts, res
}

func TestRoundTrip(t *testing.T) {
	ts, res := sample(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, Method9CHC, ts.Width, ts.NumPatterns(), res); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Method != Method9CHC || f.K != 8 || f.Width != 16 || f.Patterns != 30 {
		t.Fatalf("header mismatch: %+v", f)
	}
	if f.Method.String() != "9c+hc" || Method(77).String() == "" {
		t.Fatal("Method.String broken")
	}
	if f.NBits != res.Stream.Len() {
		t.Fatalf("payload bits %d want %d", f.NBits, res.Stream.Len())
	}
	// MVs preserved exactly.
	for i, mv := range res.Set.MVs {
		if !mv.Equal(f.Set.MVs[i]) {
			t.Fatalf("MV %d changed: %s vs %s", i, mv.StringU(), f.Set.MVs[i].StringU())
		}
	}
	// Decoding through the container must reproduce the test set.
	dec, err := blockcode.Decode(bitstream.NewReader(f.Payload, f.NBits), f.Set, f.Code, f.Width*f.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
}

// TestNumBlocksPadding: the dimensions alone size the decode. With a bit
// count K does not divide, the payload carries ⌈bits/K⌉ blocks, the last
// one padded, and decoding Width·Patterns trits consumes all of it.
func TestNumBlocksPadding(t *testing.T) {
	ts := testset.Random(13, 7, 0.3, rand.New(rand.NewSource(2)))
	res, err := ninec.Compress(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Method9C, ts.Width, ts.NumPatterns(), res); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if blockcode.Partition(ts, f.K).Len()*f.K == ts.TotalBits() {
		t.Fatalf("%d bits fill whole %d-blocks: no padding to test", ts.TotalBits(), f.K)
	}
	r := bitstream.NewReader(f.Payload, f.NBits)
	dec, err := blockcode.Decode(r, f.Set, f.Code, f.Width*f.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d payload bits left after the padded final block", r.Remaining())
	}
}

func TestBadMagicAndTruncation(t *testing.T) {
	ts, res := sample(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, MethodEA, ts.Width, ts.NumPatterns(), res); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, cut := range []int{3, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Corrupt version byte.
	corrupt := append([]byte(nil), raw...)
	corrupt[4] = 9
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWriteWithoutStream(t *testing.T) {
	_, res := sample(t, 4)
	res.Stream = nil
	var buf bytes.Buffer
	if err := Write(&buf, MethodEA, 16, 30, res); err == nil {
		t.Fatal("missing stream accepted")
	}
}

func TestV2RoundTrip(t *testing.T) {
	want := &Container{
		Version:  Version2,
		Codec:    "selhuff",
		Width:    32,
		Patterns: 10,
		Params:   []byte{1, 2, 3, 4, 5},
		Payload:  []byte{0xAB, 0xCD, 0xE0},
		NBits:    20,
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Codec != want.Codec || got.Width != want.Width || got.Patterns != want.Patterns ||
		got.NBits != want.NBits || !bytes.Equal(got.Params, want.Params) ||
		!bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round trip changed container: %+v want %+v", got, want)
	}
}

// TestReadAnyV1 checks that legacy v1 files surface through the
// universal reader with the method lifted to a codec name and the
// structural header re-encoded as a block-parameter blob.
func TestReadAnyV1(t *testing.T) {
	ts, res := sample(t, 5)
	var buf bytes.Buffer
	if err := Write(&buf, Method9CHC, ts.Width, ts.NumPatterns(), res); err != nil {
		t.Fatal(err)
	}
	c, err := ReadAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 1 || c.Codec != "9chc" || c.Width != 16 || c.Patterns != 30 {
		t.Fatalf("v1 conversion header mismatch: %+v", c)
	}
	set, code, err := DecodeBlockParams(c.Params)
	if err != nil {
		t.Fatal(err)
	}
	if set.K != res.Set.K || len(set.MVs) != len(res.Set.MVs) {
		t.Fatalf("block params changed: K=%d nMVs=%d", set.K, len(set.MVs))
	}
	for i, mv := range res.Set.MVs {
		if !mv.Equal(set.MVs[i]) {
			t.Fatalf("MV %d changed across v1 conversion", i)
		}
	}
	dec, err := blockcode.Decode(bitstream.NewReader(c.Payload, c.NBits), set, code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
}

func TestBlockParamsRoundTrip(t *testing.T) {
	_, res := sample(t, 6)
	blob, err := EncodeBlockParams(res.Set, res.Code)
	if err != nil {
		t.Fatal(err)
	}
	set, code, err := DecodeBlockParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if set.K != res.Set.K || len(set.MVs) != len(res.Set.MVs) {
		t.Fatalf("dimensions changed: K=%d nMVs=%d", set.K, len(set.MVs))
	}
	for i := range res.Set.MVs {
		if !res.Set.MVs[i].Equal(set.MVs[i]) {
			t.Fatalf("MV %d changed", i)
		}
		if code.Lengths[i] != res.Code.Lengths[i] || code.Words[i] != res.Code.Words[i] {
			t.Fatalf("codeword %d changed", i)
		}
	}
	if _, _, err := DecodeBlockParams(append(blob, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, _, err := DecodeBlockParams(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// TestHostileHeaders feeds headers whose size fields vastly exceed the
// stream body: parsing must fail fast without allocating the claimed
// sizes (the historical OOM vector for cmd/tdecompress).
func TestHostileHeaders(t *testing.T) {
	be32 := func(v uint32) []byte { return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)} }
	v2hdr := func(width, patterns, paramLen uint32) []byte {
		b := []byte{'T', 'C', 'M', 'P', 2, 2, 'e', 'a'}
		b = append(b, be32(width)...)
		b = append(b, be32(patterns)...)
		b = append(b, be32(paramLen)...)
		return b
	}
	cases := map[string][]byte{
		// v2: 4-billion-bit payload claim, empty body.
		"v2 huge nbits": append(v2hdr(8, 2, 0), be32(0xFFFFFFFF)...),
		// v2: param blob larger than the format cap.
		"v2 huge params": v2hdr(8, 2, 0xFFFFFFFF),
		// v2: zero width.
		"v2 zero width": append(v2hdr(0, 2, 0), be32(0)...),
		// v2: dimension caps.
		"v2 width over cap":    append(v2hdr(MaxWidth+1, 2, 0), be32(0)...),
		"v2 patterns over cap": append(v2hdr(8, MaxPatterns+1, 0), be32(0)...),
		// v2: bad codec name byte.
		"v2 bad codec name": {'T', 'C', 'M', 'P', 2, 2, 'E', 'A',
			0, 0, 0, 8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0},
		// v2: zero-length codec name.
		"v2 empty codec name": {'T', 'C', 'M', 'P', 2, 0},
		// v1: 65535 MVs claimed, no MV data.
		"v1 huge nMVs": {'T', 'C', 'M', 'P', 1, 1, 0, 8, 0, 0, 0, 8, 0, 0, 0, 2, 0xFF, 0xFF},
		// v1: zero block length (division-by-zero guard).
		"v1 zero k": {'T', 'C', 'M', 'P', 1, 1, 0, 0, 0, 0, 0, 8, 0, 0, 0, 2, 0, 1},
		// v1: zero MVs.
		"v1 zero MVs": {'T', 'C', 'M', 'P', 1, 1, 0, 4, 0, 0, 0, 8, 0, 0, 0, 2, 0, 0},
		// v1: unknown method byte.
		"v1 unknown method": {'T', 'C', 'M', 'P', 1, 77, 0, 4, 0, 0, 0, 8, 0, 0, 0, 2, 0, 1},
	}
	for name, data := range cases {
		if _, err := ReadAny(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same hostile v1 bodies must also be rejected by the legacy
	// entry point cmd/tdecompress historically used.
	for _, name := range []string{"v1 huge nMVs", "v1 zero k", "v1 zero MVs"} {
		if _, err := Read(bytes.NewReader(cases[name])); err == nil {
			t.Errorf("legacy Read: %s accepted", name)
		}
	}
}

func TestWriteV2Invalid(t *testing.T) {
	base := func() *Container {
		return &Container{Version: Version2, Codec: "ea", Width: 8, Patterns: 2,
			Payload: []byte{0xFF}, NBits: 8}
	}
	cases := map[string]func(*Container){
		"empty codec":      func(c *Container) { c.Codec = "" },
		"bad codec chars":  func(c *Container) { c.Codec = "EA" },
		"long codec":       func(c *Container) { c.Codec = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" },
		"zero width":       func(c *Container) { c.Width = 0 },
		"payload mismatch": func(c *Container) { c.NBits = 17 },
		"negative nbits":   func(c *Container) { c.NBits = -1 },
	}
	for name, mutate := range cases {
		c := base()
		mutate(c)
		if err := WriteV2(&bytes.Buffer{}, c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := WriteV2(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil container accepted")
	}
}
