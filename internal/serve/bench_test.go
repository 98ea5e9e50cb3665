package serve

// BenchmarkServeRoundTrip measures end-to-end daemon throughput — one
// HTTP compress followed by one HTTP decompress per iteration — at 1,
// 8, and 64 concurrent clients sharing a GOMAXPROCS-sized worker
// budget. The cache is disabled and every request uses a distinct seed
// so the numbers reflect codec work, not cache hits. MB/s counts the
// textual input of each round trip. The request log is discarded: its
// lines would split the result lines that CI parses and ratchets against
// the committed tcomp-bench/1 baseline BENCH_serve.json.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	tcomp "repro"
)

func BenchmarkServeRoundTrip(b *testing.B) {
	s := mustServer(b, Config{CacheBytes: 0, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ctx := context.Background()

	ts := randomSet(32, 256, 1)
	var in bytes.Buffer
	if err := ts.Write(&in); err != nil {
		b.Fatal(err)
	}
	input := in.Bytes()

	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client := tcomp.NewClient(hs.URL)
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						var cont, text bytes.Buffer
						if _, err := client.Compress(ctx, "golomb", bytes.NewReader(input), &cont, tcomp.WithSeed(i)); err != nil {
							b.Error(err)
							return
						}
						if err := client.Decompress(ctx, &cont, &text); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
