package serve

// FuzzServeCompressHandler throws hostile query strings and bodies at
// the compress endpoint: parsing must reject garbage with a clean 4xx —
// never panic, never let an absurd parameter (a 2^31 MV count, a
// 4-billion-pattern chunk, a hostile width header) through to an
// allocation — and anything it accepts must round-trip.

import (
	"bytes"
	"io"
	"net/http/httptest"
	"net/url"
	"testing"

	tcomp "repro"
	"repro/internal/scenario"
	"repro/internal/testset"
)

func FuzzServeCompressHandler(f *testing.F) {
	f.Add("codec=golomb", []byte("4 2\n01X1\n1X00\n"))
	f.Add("codec=rl&b=3&seed=9", []byte("8 1\n0101X10X\n"))
	f.Add("codec=fdr&format=v2", []byte("4 1\n0000\n"))
	f.Add("codec=nope", []byte("4 1\n0101\n"))
	f.Add("codec=golomb&chunk=4294967295", []byte("4 1\n0101\n"))
	f.Add("codec=golomb&l=2147483647", []byte("4 1\n0101\n"))
	f.Add("codec=ea&runs=99999&k=-3", []byte("4 1\n0101\n"))
	f.Add("codec=golomb&frobnicate=1", []byte("4 1\n0101\n"))
	f.Add("codec=golomb", []byte("4294967295 *\n01\n"))
	f.Add("codec=golomb", []byte("TSET\x01\x00\x00\x00\x04\x00\x00\x00\x01\x44"))
	f.Add("codec=selhuff&d=0&k=70", []byte("not a test set"))
	f.Add("%zz=&codec=golomb", []byte("4 1\n0101\n"))

	// Realistic seeds from the scenario corpus: ATPG-shaped stuck-at,
	// path-delay, and multichain pattern sets — the don't-care density
	// and block structure the daemon actually serves, which the
	// hand-written seeds above lack. Deterministic in the seed, so the
	// corpus is stable across runs.
	if corpus, err := scenario.Corpus(11); err == nil {
		queries := []string{"codec=golomb&seed=3", "codec=fdr", "codec=9c&k=4", "codec=rl&b=3", "codec=selhuff&d=4"}
		for i, sc := range corpus {
			var buf bytes.Buffer
			if sc.Set.Write(&buf) == nil {
				f.Add(queries[i%len(queries)], append([]byte(nil), buf.Bytes()...))
			}
		}
	}

	s := mustServer(f, Config{Workers: 1, CacheBytes: 1 << 16, CacheInputBytes: 1 << 12, MaxBodyBytes: 1 << 14})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return // not even a query string
		}
		// The parser must survive any query; heavy execution is limited
		// to the cheap codecs so the fuzzer measures parsing, not EA
		// wall-clock.
		if q.Get("codec") == "ea" {
			rec := httptest.NewRecorder()
			if _, ok := parseCompressQuery(rec, q); !ok {
				return
			}
			return
		}
		req := httptest.NewRequest("POST", "/v1/compress?"+q.Encode(), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode != 200 {
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Fatalf("rejected input with status %d, want 4xx", resp.StatusCode)
			}
			return
		}
		// Accepted: the produced container must expand losslessly
		// against the submitted patterns.
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading accepted response: %v", err)
		}
		if msg := resp.Trailer.Get("X-Tcomp-Error"); msg != "" {
			return // accepted then failed mid-stream; truncation is flagged
		}
		// Re-parse the submission the way the server did: through the
		// one scanner, which reads either format.
		sc, err := testset.NewScanner(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("server accepted a body the scanner rejects: %v", err)
		}
		orig := testset.New(sc.Width())
		for {
			v, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("server accepted a body with a bad pattern: %v", err)
			}
			orig.Add(v)
		}
		var dec *testset.TestSet
		if q.Get("format") == "v2" {
			art, err := tcomp.Open(bytes.NewReader(out))
			if err != nil {
				t.Fatalf("accepted v2 response does not parse: %v", err)
			}
			if dec, err = tcomp.Decompress(art); err != nil {
				t.Fatalf("accepted v2 response does not decode: %v", err)
			}
		} else {
			sr, err := tcomp.NewStreamReader(bytes.NewReader(out))
			if err != nil {
				t.Fatalf("accepted v3 response does not parse: %v", err)
			}
			if dec, err = sr.ReadAll(); err != nil {
				t.Fatalf("accepted v3 response does not decode: %v", err)
			}
		}
		if !tcomp.VerifyLossless(orig, dec) {
			t.Fatalf("accepted response is lossy (codec %s, %d patterns)", q.Get("codec"), orig.NumPatterns())
		}
	})
}
