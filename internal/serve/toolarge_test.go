package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tcomp "repro"
)

// TestOversizedBodyIs413 pins the taxonomy for a body that hits the
// MaxBytesReader cap: historically the truncation surfaced as whatever
// parse error it caused and was misreported as a 400 bad_request; it
// must be a 413 request_too_large on both data endpoints, with the code
// in the JSON body and the X-Tcomp-Error-Code header.
func TestOversizedBodyIs413(t *testing.T) {
	s := mustServer(t, Config{Workers: 2, MaxBodyBytes: 256})
	// Both bodies must be *well-formed* payloads that merely exceed the
	// cap: a parse failure caused by anything other than the truncation
	// would rightly stay a 400.
	line := strings.Repeat("01", 64) + "\n"      // width 128: one pattern line fits the cap
	text := "128 3\n" + line + line + line       // 393 bytes > 256: truncated mid-pattern
	container := oversizedContainer(t, 64, 1000) // valid golomb container, > 256 bytes
	var bin bytes.Buffer                         // the same width in TSET: 13 + 20·32 bytes
	if err := randomSet(128, 20, 5).WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, target, body string
	}{
		{"compress", "/v1/compress?codec=golomb", text},
		{"compress TSET", "/v1/compress?codec=golomb", bin.String()},
		{"decompress", "/v1/decompress", container},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, tc.target, strings.NewReader(tc.body))
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413; body: %s", rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-Tcomp-Error-Code"); got != CodeTooLarge {
				t.Fatalf("X-Tcomp-Error-Code = %q, want %q", got, CodeTooLarge)
			}
			var eb ErrorBody
			if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not taxonomy JSON: %v", err)
			}
			if eb.Code != CodeTooLarge || eb.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("error body = %+v, want code %q status 413", eb, CodeTooLarge)
			}
		})
	}
}

// oversizedContainer compresses a random test set into a genuine
// container whose byte length exceeds minBytes.
func oversizedContainer(t *testing.T, width, minBytes int) string {
	t.Helper()
	codec, err := tcomp.Lookup("golomb")
	if err != nil {
		t.Fatal(err)
	}
	for patterns := 16; patterns <= 1<<12; patterns *= 2 {
		art, err := codec.Compress(context.Background(), randomSet(width, patterns, 42))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tcomp.Write(&buf, art); err != nil {
			t.Fatal(err)
		}
		if buf.Len() > minBytes {
			return buf.String()
		}
	}
	t.Fatal("could not build an oversized container")
	return ""
}

// TestClientMapsTooLarge proves the client folds the 413 taxonomy into
// the ErrTooLarge sentinel (and not into ErrBadRequest).
func TestClientMapsTooLarge(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 256})
	ts := randomSet(128, 16, 99)
	var sink bytes.Buffer
	_, err := client.Compress(context.Background(), "golomb", bytes.NewReader(textOf(t, ts)), &sink)
	if err == nil {
		t.Fatal("oversized submission accepted")
	}
	if !errors.Is(err, tcomp.ErrTooLarge) {
		t.Fatalf("errors.Is(err, ErrTooLarge) = false: %v", err)
	}
	if errors.Is(err, tcomp.ErrBadRequest) {
		t.Fatalf("413 must not classify as ErrBadRequest: %v", err)
	}
	var re *tcomp.RemoteError
	if !errors.As(err, &re) || re.Code != "request_too_large" {
		t.Fatalf("want RemoteError with code request_too_large, got %v", err)
	}
}

// TestUndersizedBodyStillBadRequest guards the classifier the other
// way: a genuinely malformed body under the cap stays a 400.
func TestUndersizedBodyStillBadRequest(t *testing.T) {
	s := mustServer(t, Config{Workers: 2, MaxBodyBytes: 1 << 20})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/compress?codec=golomb", strings.NewReader("01\n0X\nnot-a-pattern\n"))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", rec.Code, rec.Body.String())
	}
}
