package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/container"
	"repro/internal/ninec"
	"repro/internal/serve"
	"repro/internal/testset"
)

// truncatedFixture compresses a small set into a chunked v3 container
// and cuts it short, returning the bytes and the index of the chunk the
// truncation lands in.
func truncatedFixture(t *testing.T) []byte {
	t.Helper()
	ts := testset.Random(16, 40, 0.4, rand.New(rand.NewSource(5)))
	var buf bytes.Buffer
	sw, err := tcomp.NewStreamWriter(context.Background(), &buf, "rl", ts.Width, tcomp.WithChunkPatterns(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSet(ts); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()*2/3]
}

// drainStream reads the fixture until it fails, returning the failing
// chunk index and the raw error — the inputs streamFailureLine turns
// into the user-facing message.
func drainStream(t *testing.T, data []byte) (int, error) {
	t.Helper()
	sr, err := tcomp.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("fixture header unreadable: %v", err)
	}
	for {
		_, err := sr.Next()
		if err == io.EOF {
			t.Fatal("truncated fixture read to EOF without error")
		}
		if err != nil {
			return sr.ChunkIndex(), err
		}
	}
}

// TestStreamFailureLine: a truncated v3 container produces one
// actionable line naming the failing chunk — not a wrapped Go error
// chain.
func TestStreamFailureLine(t *testing.T) {
	idx, err := drainStream(t, truncatedFixture(t))
	if idx < 1 {
		t.Fatalf("truncation at 2/3 of a 5-chunk stream should fail past chunk 0, got %d", idx)
	}
	line := streamFailureLine(idx, err)
	if strings.ContainsAny(line, "\n") {
		t.Fatalf("message is not one line: %q", line)
	}
	if !strings.Contains(line, "chunk") {
		t.Fatalf("message does not name the failing chunk: %q", line)
	}
	if !strings.Contains(line, "truncated") {
		t.Fatalf("truncation not called out: %q", line)
	}
	if strings.Contains(line, "%!") || strings.Contains(line, "tcomp:") || strings.Contains(line, "container:") {
		t.Fatalf("Go error chain leaked into the message: %q", line)
	}
	if !strings.Contains(line, "re-transfer") {
		t.Fatalf("message is not actionable: %q", line)
	}
}

// TestStreamFailureLineCorruption: a CRC failure (flipped byte inside a
// frame) is reported as corruption at the right chunk.
func TestStreamFailureLineCorruption(t *testing.T) {
	ts := testset.Random(16, 40, 0.4, rand.New(rand.NewSource(6)))
	var buf bytes.Buffer
	sw, err := tcomp.NewStreamWriter(context.Background(), &buf, "rl", ts.Width, tcomp.WithChunkPatterns(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSet(ts); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)*2/3] ^= 0xFF // land inside a mid-stream frame

	idx, err := drainStream(t, data)
	line := streamFailureLine(idx, err)
	if !strings.Contains(line, "chunk") || strings.Contains(line, "\n") {
		t.Fatalf("corruption message malformed: %q", line)
	}
}

// versionFixtures holds one test set in all three container versions:
// a legacy v1 block-codec file, a universal v2 container, and a chunked
// v3 stream.
func versionFixtures(t *testing.T, ts *testset.TestSet) map[string][]byte {
	t.Helper()
	res, err := ninec.CompressHC(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := container.Write(&v1, container.Method9CHC, ts.Width, ts.NumPatterns(), res); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	blobs := map[string][]byte{"v1": v1.Bytes()}
	for _, format := range []string{"v2", "v3"} {
		var buf bytes.Buffer
		if _, err := tcomp.CompressTo(ctx, &buf, "9chc", format, ts.Width, tcomp.PatternsOf(ts), nil,
			tcomp.WithBlockLen(8), tcomp.WithChunkPatterns(8)); err != nil {
			t.Fatal(err)
		}
		blobs[format] = buf.Bytes()
	}
	return blobs
}

// TestExpandEveryVersionEveryPath: v1, v2 and v3 containers expand to
// byte-identical text through local tdecompress, the daemon's
// /v1/decompress (also via -remote) and a decompress job (also via
// -remote -async). The header carries the count for v1/v2 and the
// streaming "width *" for v3; the FSM model expands v1/v2 to the same
// bytes and refuses v3.
func TestExpandEveryVersionEveryPath(t *testing.T) {
	ts := testset.Random(16, 40, 0.4, rand.New(rand.NewSource(7)))
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.txt")
	var text bytes.Buffer
	if err := ts.Write(&text); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orig, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := tcomp.NewClient(hs.URL)
	client.PollInterval = 2 * time.Millisecond
	ctx := context.Background()

	readOut := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for version, blob := range versionFixtures(t, ts) {
		out := filepath.Join(dir, version+".txt")
		if err := expand(bytes.NewReader(blob), out, orig, io.Discard); err != nil {
			t.Fatalf("%s: local expand: %v", version, err)
		}
		local := readOut(out)
		wantHeader := "16 40\n"
		if version == "v3" {
			wantHeader = "16 *\n"
		}
		if !strings.HasPrefix(local, wantHeader) {
			t.Fatalf("%s: local output starts %q, want header %q", version, local[:8], wantHeader)
		}

		var sync bytes.Buffer
		if err := client.Decompress(ctx, bytes.NewReader(blob), &sync); err != nil {
			t.Fatalf("%s: /v1/decompress: %v", version, err)
		}
		j, err := client.SubmitDecompressJob(ctx, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if j, err = client.WaitJob(ctx, j.ID); err != nil || j.State != tcomp.JobDone {
			t.Fatalf("%s: decompress job %+v: %v", version, j, err)
		}
		var async bytes.Buffer
		if _, err := client.JobResult(ctx, j.ID, &async); err != nil {
			t.Fatal(err)
		}
		if j.Stats.Patterns != 40 || j.Stats.CompressedBits <= 0 {
			t.Fatalf("%s: decompress job stats %+v", version, j.Stats)
		}
		if sync.String() != local || async.String() != local {
			t.Fatalf("%s: expansions differ:\nlocal %q\nsync  %q\njob   %q", version, local[:20], sync.String()[:20], async.String()[:20])
		}

		for name, run := range map[string]func(io.Reader, string) error{
			"remote": func(r io.Reader, out string) error { return runRemote(hs.URL, r, out, orig) },
			"async":  func(r io.Reader, out string) error { return runAsync(hs.URL, r, out, orig) },
			"fsm":    func(r io.Reader, out string) error { return expandFSM(r, out, orig, io.Discard) },
		} {
			out := filepath.Join(dir, version+"-"+name+".txt")
			err := run(bytes.NewReader(blob), out)
			if name == "fsm" && version == "v3" {
				if err == nil {
					t.Fatal("-fsm expanded a chunked v3 stream")
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", version, name, err)
			}
			if got := readOut(out); got != local {
				t.Fatalf("%s: %s output differs from the local expansion", version, name)
			}
		}
	}
}

// TestExpandErrors: a body that is not a container, a truncated v3
// stream (one actionable line naming the chunk), and a verification
// mismatch all fail the expansion.
func TestExpandErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.txt")
	if err := expand(strings.NewReader("garbage"), out, "", io.Discard); !errors.Is(err, tcomp.ErrNotContainer) {
		t.Fatalf("garbage input: %v, want ErrNotContainer", err)
	}
	err := expand(bytes.NewReader(truncatedFixture(t)), out, "", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "stream unreadable at chunk") {
		t.Fatalf("truncated stream: %v", err)
	}
	ts := testset.Random(16, 40, 0.4, rand.New(rand.NewSource(8)))
	other := filepath.Join(dir, "other.txt")
	var text bytes.Buffer
	if err := testset.Random(16, 40, 0.9, rand.New(rand.NewSource(9))).Write(&text); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	blob := versionFixtures(t, ts)["v2"]
	if err := expand(bytes.NewReader(blob), out, other, io.Discard); err == nil || !strings.Contains(err.Error(), "verification FAILED") {
		t.Fatalf("verification against a different set: %v", err)
	}
}
