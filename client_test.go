package tcomp_test

// The public-API conformance suite for tcomp.Client against a real
// serve.Server. It lives in the external test package: the server
// imports tcomp, so an internal test would be an import cycle.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/serve"
	"repro/internal/testset"
)

func newDaemon(t *testing.T) (*serve.Server, *tcomp.Client) {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, tcomp.NewClient(hs.URL + "/") // trailing slash must be tolerated
}

func clientSet(t *testing.T, seed int64) *tcomp.TestSet {
	t.Helper()
	return testset.Random(16, 25, 0.4, rand.New(rand.NewSource(seed)))
}

func TestClientCompressDecompress(t *testing.T) {
	_, c := newDaemon(t)
	ctx := context.Background()
	ts := clientSet(t, 1)

	var in bytes.Buffer
	if err := ts.Write(&in); err != nil {
		t.Fatal(err)
	}
	var cont bytes.Buffer
	stats, err := c.Compress(ctx, "rl", &in, &cont, tcomp.WithSeed(3), tcomp.WithCounterWidth(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Patterns != ts.NumPatterns() || stats.OriginalBits != ts.TotalBits() {
		t.Fatalf("stats %+v do not match the %d-pattern input", stats, ts.NumPatterns())
	}
	if stats.RatePercent() != 100*float64(stats.OriginalBits-stats.CompressedBits)/float64(stats.OriginalBits) {
		t.Fatal("RatePercent inconsistent with the reported bit counts")
	}

	var text bytes.Buffer
	if err := c.Decompress(ctx, &cont, &text); err != nil {
		t.Fatal(err)
	}
	dec, err := testset.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(ts, dec) {
		t.Fatal("client round trip lost specified bits")
	}
}

func TestClientCompressSetMatchesLocal(t *testing.T) {
	_, c := newDaemon(t)
	ctx := context.Background()
	ts := clientSet(t, 2)

	art, stats, err := c.CompressSet(ctx, "golomb", ts, tcomp.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	codec, err := tcomp.Lookup("golomb")
	if err != nil {
		t.Fatal(err)
	}
	local, err := codec.Compress(ctx, ts, tcomp.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art.Payload, local.Payload) || !bytes.Equal(art.Params, local.Params) {
		t.Fatal("remote artifact differs from local compression")
	}
	if stats.CompressedBits != local.CompressedBits {
		t.Fatalf("stats report %d bits, local %d", stats.CompressedBits, local.CompressedBits)
	}
	dec, err := c.DecompressSet(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(ts, dec) {
		t.Fatal("DecompressSet lost specified bits")
	}
}

func TestClientCodecsAndHealth(t *testing.T) {
	s, c := newDaemon(t)
	ctx := context.Background()
	infos, err := c.Codecs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	if strings.Join(names, ",") != strings.Join(tcomp.Codecs(), ",") {
		t.Fatalf("Codecs() = %v, want the registry %v", names, tcomp.Codecs())
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthy daemon reported %v", err)
	}
	s.StartDrain()
	if err := c.Health(ctx); err == nil {
		t.Fatal("draining daemon reported healthy")
	}
}

func TestClientErrors(t *testing.T) {
	_, c := newDaemon(t)
	ctx := context.Background()
	ts := clientSet(t, 3)
	var in, out bytes.Buffer
	if err := ts.Write(&in); err != nil {
		t.Fatal(err)
	}
	_, err := c.Compress(ctx, "no-such-codec", &in, &out)
	if err == nil {
		t.Fatal("unknown codec accepted")
	}
	if !strings.Contains(err.Error(), "no-such-codec") || !strings.Contains(err.Error(), "400") {
		t.Fatalf("daemon error not surfaced: %v", err)
	}
	if err := c.Decompress(ctx, strings.NewReader("garbage"), &out); err == nil {
		t.Fatal("garbage container accepted")
	}
	// An unreachable daemon fails with a transport error, not a hang.
	dead := tcomp.NewClient("http://127.0.0.1:1")
	if err := dead.Health(ctx); err == nil {
		t.Fatal("unreachable daemon reported healthy")
	}
}

// TestClientCallTimeout: a daemon that accepts the connection but never
// answers must fail the control-plane probes within CallTimeout, even
// when the caller's context carries no deadline of its own.
func TestClientCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() // never Accept: connections sit in the backlog unanswered
	c := tcomp.NewClient("http://" + ln.Addr().String())
	c.CallTimeout = 50 * time.Millisecond
	ctx := context.Background()

	start := time.Now()
	if err := c.Health(ctx); err == nil {
		t.Fatal("wedged daemon reported healthy")
	}
	if _, err := c.Codecs(ctx); err == nil {
		t.Fatal("wedged daemon listed codecs")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("probes took %v; CallTimeout did not bound them", elapsed)
	}
}
