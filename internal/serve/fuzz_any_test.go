package serve

// FuzzServeAnyEndpoint is the daemon-wide crash-resistance target the
// panic-free serving core is proven against: hostile query strings and
// bodies against every endpoint (both data planes plus the GETs), with
// every registered codec reachable. The invariants:
//
//   - the process survives every input (a panic fails the fuzz run);
//   - a contained panic (HTTP 500 internal_panic) may only come from
//     the deliberately panicking "boom" codec — any real codec
//     answering 500 is a found bug;
//   - every non-2xx answer carries the machine-readable taxonomy body
//     with a known code that matches the X-Tcomp-Error-Code header.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http/httptest"
	"net/url"
	"testing"

	tcomp "repro"
)

// fuzzPaths maps the endpoint selector byte onto the handler tree.
var fuzzPaths = []struct {
	method, path string
}{
	{"POST", "/v1/compress"},
	{"POST", "/v1/decompress"},
	{"GET", "/v1/compress"},   // wrong method: 405
	{"GET", "/v1/decompress"}, // wrong method: 405
	{"GET", "/v1/codecs"},
	{"POST", "/v1/codecs"}, // wrong method: 405
	{"GET", "/healthz"},
	{"GET", "/metrics/prometheus"},
	{"DELETE", "/v1/compress"}, // wrong method: 405
}

var knownCodes = map[string]bool{
	CodeBadRequest:       true,
	CodeMethodNotAllowed: true,
	CodeTooLarge:         true,
	CodeCorruptContainer: true,
	CodeUnprocessable:    true,
	CodeJobNotFound:      true,
	CodeJobNotDone:       true,
	CodeQueueFull:        true,
	CodeInternalPanic:    true,
	CodeUnavailable:      true,
}

// fuzzContainer builds a valid golomb v2 container to seed the
// decompress corpus with something the mutator can corrupt from.
func fuzzContainer() []byte {
	ts, err := tcomp.ParseTestSet("01X10X10", "00001111", "XXXXXXXX")
	if err != nil {
		panic(err)
	}
	codec, err := tcomp.Lookup("golomb")
	if err != nil {
		panic(err)
	}
	art, err := codec.Compress(context.Background(), ts)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := tcomp.Write(&buf, art); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzServeAnyEndpoint(f *testing.F) {
	valid := fuzzContainer()
	f.Add(uint8(0), "codec=golomb", []byte("4 2\n01X1\n1X00\n"))
	f.Add(uint8(0), "codec=rl&b=30", []byte("8 1\n0101X10X\n"))
	f.Add(uint8(0), "codec=rl&b=31", []byte("8 1\n0101X10X\n"))
	f.Add(uint8(0), "codec=selhuff&format=v2&k=62&d=3", []byte("8 2\n0101X10X\n00000000\n"))
	f.Add(uint8(0), "codec=9c&k=8", []byte("8 1\n0101X10X\n"))
	f.Add(uint8(0), "codec=9chc&format=v2", []byte("8 1\n0101X10X\n"))
	f.Add(uint8(0), "codec=fdr", []byte("4 1\n0000\n"))
	f.Add(uint8(0), "codec=boom", []byte("4 1\n0101\n"))
	f.Add(uint8(0), "codec=boom&format=v2", []byte("4 1\n0101\n"))
	f.Add(uint8(0), "codec=golomb", []byte("4294967295 4294967295\n"))
	f.Add(uint8(0), "codec=golomb", []byte("16777217 *\n01\n"))
	f.Add(uint8(0), "codec=golomb", []byte("TSET\x01\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"))
	f.Add(uint8(1), "", valid)
	f.Add(uint8(1), "", valid[:len(valid)/2])
	f.Add(uint8(1), "", []byte("TCMP\x02\x04boom\x00\x00\x00\x04\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x08\xAB"))
	f.Add(uint8(1), "", []byte("TCMP\x02\x06golomb\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"))
	f.Add(uint8(1), "", []byte("TCMP\x01\x01\x00\x08\x00\x00\x00\x10\x00\x00\x00\x02\x00\x02"))
	f.Add(uint8(1), "", []byte("TCMP\x03"))
	f.Add(uint8(1), "", []byte("not a container"))
	f.Add(uint8(2), "codec=golomb", []byte("4 1\n0101\n")) // GET /v1/compress: 405
	f.Add(uint8(4), "", []byte(nil))
	f.Add(uint8(6), "junk=%zz", []byte(nil))
	f.Add(uint8(8), "", []byte("body on DELETE"))

	s := mustServer(f, Config{Workers: 2, CacheBytes: 1 << 16, CacheInputBytes: 1 << 12, MaxBodyBytes: 1 << 14})
	h := s.Handler()
	// Contained panics log a stack each; the boom corpus would drown the
	// fuzzer's own output.
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(io.Discard) })

	f.Fuzz(func(t *testing.T, ep uint8, query string, body []byte) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return // not even a query string
		}
		route := fuzzPaths[int(ep)%len(fuzzPaths)]
		if route.method == "POST" && route.path == "/v1/compress" && q.Get("codec") == "ea" {
			// EA wall-clock would dominate the fuzz budget; its parse
			// path is covered by FuzzServeCompressHandler's ea branch.
			return
		}
		req := httptest.NewRequest(route.method, route.path+"?"+q.Encode(), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the run: that is the point
		resp := rec.Result()

		// A 500 is only legitimate when the deliberately panicking test
		// codec was reachable: named in the query (compress) or in the
		// container header (decompress; registry dispatch needs the
		// literal name in the body).
		boomReachable := q.Get("codec") == "boom" || bytes.Contains(body, []byte("boom"))
		if resp.StatusCode >= 500 && resp.StatusCode != 503 && !boomReachable {
			t.Fatalf("%s %s?%s: status %d from a non-panicking codec",
				route.method, route.path, q.Encode(), resp.StatusCode)
		}
		if resp.StatusCode >= 400 {
			code := resp.Header.Get("X-Tcomp-Error-Code")
			if !knownCodes[code] {
				t.Fatalf("%s %s: status %d with unknown error code %q",
					route.method, route.path, resp.StatusCode, code)
			}
			var e ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("%s %s: status %d error body does not parse: %v",
					route.method, route.path, resp.StatusCode, err)
			}
			if e.Code != code || e.Status != resp.StatusCode || e.Error == "" {
				t.Fatalf("%s %s: inconsistent error body %+v (header code %q, status %d)",
					route.method, route.path, e, code, resp.StatusCode)
			}
		}
		// Streamed 200s may still fail mid-body; the trailer code must
		// then be from the taxonomy.
		io.Copy(io.Discard, resp.Body)
		if code := resp.Trailer.Get("X-Tcomp-Error-Code"); code != "" && !knownCodes[code] {
			t.Fatalf("%s %s: unknown trailer error code %q", route.method, route.path, code)
		}
	})
}
