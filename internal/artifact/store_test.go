package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// stores builds one of each implementation so every contract test runs
// against both.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"disk": disk, "mem": NewMemStore()}
}

func mustPut(t *testing.T, s Store, content string) Digest {
	t.Helper()
	d, n, err := s.Put(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Fatalf("Put reported %d bytes, wrote %d", n, len(content))
	}
	return d
}

func mustRead(t *testing.T, s Store, d Digest) string {
	t.Helper()
	rc, err := s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPutOpenRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			content := "the quick brown fox\x00\x01\x02 jumps"
			d := mustPut(t, s, content)
			if want := SumBytes([]byte(content)); d != want {
				t.Fatalf("digest %s, want %s", d, want)
			}
			if got := mustRead(t, s, d); got != content {
				t.Fatalf("read back %q, want %q", got, content)
			}
			info, err := s.Stat(d)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != int64(len(content)) || info.Digest != d {
				t.Fatalf("stat %+v", info)
			}
			if s.Len() != 1 || s.Bytes() != int64(len(content)) {
				t.Fatalf("accounting: %d blobs, %d bytes", s.Len(), s.Bytes())
			}
			// Idempotent re-Put of the same content: one blob, same address.
			if d2 := mustPut(t, s, content); d2 != d {
				t.Fatalf("re-put digest %s, want %s", d2, d)
			}
			if s.Len() != 1 {
				t.Fatalf("re-put duplicated the blob: %d entries", s.Len())
			}
		})
	}
}

func TestOpenAndDeleteMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			ghost := SumBytes([]byte("never stored"))
			if _, err := s.Open(ghost); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open(missing) = %v, want ErrNotFound", err)
			}
			if _, err := s.Stat(ghost); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Stat(missing) = %v, want ErrNotFound", err)
			}
			if err := s.Delete(ghost); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(missing) = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			d := mustPut(t, s, "short lived")
			if err := s.Delete(d); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open(d); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open(deleted) = %v, want ErrNotFound", err)
			}
			if s.Len() != 0 || s.Bytes() != 0 {
				t.Fatalf("accounting after delete: %d blobs, %d bytes", s.Len(), s.Bytes())
			}
		})
	}
}

// TestPutReaderError: a failing producer aborts the write — no partial
// blob becomes visible and the producer's error comes back unwrapped.
func TestPutReaderError(t *testing.T) {
	boom := errors.New("producer exploded")
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			r := io.MultiReader(strings.NewReader("partial"), failReader{boom})
			if _, _, err := s.Put(r); !errors.Is(err, boom) {
				t.Fatalf("Put error %v, want the producer's", err)
			}
			if s.Len() != 0 {
				t.Fatalf("failed Put left %d blobs visible", s.Len())
			}
		})
	}
	// The disk store must also leave no staging file behind.
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(failReader{boom}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("failed Put leaked %d staging files", len(tmps))
	}
}

type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }

// TestConcurrentPutIdenticalContent: N goroutines racing to Put the same
// bytes converge on exactly one blob with consistent accounting.
func TestConcurrentPutIdenticalContent(t *testing.T) {
	content := bytes.Repeat([]byte("deterministic payload "), 512)
	want := SumBytes(content)
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const racers = 16
			var wg sync.WaitGroup
			errs := make(chan error, racers)
			for i := 0; i < racers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d, _, err := s.Put(bytes.NewReader(content))
					if err != nil {
						errs <- err
						return
					}
					if d != want {
						errs <- fmt.Errorf("digest %s, want %s", d, want)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if s.Len() != 1 {
				t.Fatalf("%d racers left %d blobs, want 1", racers, s.Len())
			}
			if s.Bytes() != int64(len(content)) {
				t.Fatalf("accounting %d bytes, want %d", s.Bytes(), len(content))
			}
			if got := mustRead(t, s, want); got != string(content) {
				t.Fatal("raced blob does not read back intact")
			}
		})
	}
}

// TestDiskCorruptionDetectedOnRead: flipping a byte in the on-disk blob
// surfaces as ErrCorrupt from the verifying reader, never as silent bad
// data.
func TestDiskCorruptionDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("precious bits"), 100)
	d, _, err := s.Put(bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, string(d)[:2], string(d))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, err = io.ReadAll(rc)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading corrupt blob: %v, want ErrCorrupt", err)
	}

	// Truncation is corruption too.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err = s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading truncated blob: %v, want ErrCorrupt", err)
	}
}

// TestSweepTTL: blobs idle past the TTL are expired; recently used ones
// survive.
func TestSweepTTL(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			old := mustPut(t, s, "stale artifact")
			young := mustPut(t, s, "fresh artifact!")
			// Sweep with a clock far enough ahead that only blobs untouched
			// since `then` expire: touch `young` by opening it "later".
			time.Sleep(5 * time.Millisecond)
			if got := mustRead(t, s, young); got != "fresh artifact!" {
				t.Fatal("young blob unreadable")
			}
			oldInfo, err := s.Stat(old)
			if err != nil {
				t.Fatal(err)
			}
			youngInfo, err := s.Stat(young)
			if err != nil {
				t.Fatal(err)
			}
			// A cutoff between the two recency stamps expires exactly one.
			ttl := time.Millisecond
			now := oldInfo.LastUsed.Add(ttl + time.Millisecond)
			if !youngInfo.LastUsed.After(now.Add(-ttl)) {
				t.Fatalf("test clock skew: young %v not after cutoff %v", youngInfo.LastUsed, now.Add(-ttl))
			}
			st := s.Sweep(now, ttl, 0)
			if st.Expired != 1 || st.Evicted != 0 {
				t.Fatalf("sweep stats %+v, want 1 expired", st)
			}
			if _, err := s.Open(old); !errors.Is(err, ErrNotFound) {
				t.Fatalf("expired blob still opens: %v", err)
			}
			if got := mustRead(t, s, young); got != "fresh artifact!" {
				t.Fatal("TTL sweep deleted a live blob")
			}
		})
	}
}

// TestSweepQuota: over-quota stores evict least-recently-used first and
// stop as soon as the quota holds.
func TestSweepQuota(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			a := mustPut(t, s, strings.Repeat("a", 100))
			time.Sleep(2 * time.Millisecond)
			b := mustPut(t, s, strings.Repeat("b", 100))
			time.Sleep(2 * time.Millisecond)
			c := mustPut(t, s, strings.Repeat("c", 100))
			time.Sleep(2 * time.Millisecond)
			// Touch a: it becomes the most recent; b is now the LRU victim.
			mustRead(t, s, a)

			st := s.Sweep(time.Now(), 0, 250)
			if st.Evicted != 1 || st.FreedBytes != 100 {
				t.Fatalf("sweep stats %+v, want 1 eviction of 100 bytes", st)
			}
			if _, err := s.Open(b); !errors.Is(err, ErrNotFound) {
				t.Fatalf("LRU victim b still present: %v", err)
			}
			for _, live := range []Digest{a, c} {
				if _, err := s.Stat(live); err != nil {
					t.Fatalf("quota sweep deleted live blob: %v", err)
				}
			}
			if s.Bytes() != 200 {
				t.Fatalf("post-sweep accounting %d bytes, want 200", s.Bytes())
			}
		})
	}
}

// TestDiskRestartReindex: a fresh DiskStore over an existing directory
// rediscovers every blob with correct sizes.
func TestDiskRestartReindex(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	contents := []string{"first blob", "second, longer blob", strings.Repeat("x", 4096)}
	digests := make([]Digest, len(contents))
	var total int64
	for i, c := range contents {
		digests[i] = mustPut(t, s1, c)
		total += int64(len(c))
	}
	// Drop a stray non-blob file into a shard: reindex must skip it.
	if err := os.WriteFile(filepath.Join(dir, string(digests[0])[:2], "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(contents) || s2.Bytes() != total {
		t.Fatalf("reindex found %d blobs / %d bytes, want %d / %d", s2.Len(), s2.Bytes(), len(contents), total)
	}
	for i, d := range digests {
		if got := mustRead(t, s2, d); got != contents[i] {
			t.Fatalf("blob %d reads back %q after restart, want %q", i, got, contents[i])
		}
	}
}

func TestParseDigest(t *testing.T) {
	good := string(SumBytes([]byte("x")))
	if _, err := ParseDigest(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "abc", good[:63], good + "0", strings.Repeat("z", 64), "../../../../etc/passwd"} {
		if _, err := ParseDigest(bad); err == nil {
			t.Fatalf("ParseDigest(%q) accepted a malformed digest", bad)
		}
	}
}

// TestOrphanedTmpCleanup simulates a crash mid-Put: a stale put-* file
// sits in tmp/ when the store (re)opens. NewDiskStore reclaims it;
// fresh staging files (an in-flight Put of a concurrent process) and
// foreign files survive both the constructor and Sweep.
func TestOrphanedTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewDiskStore(dir); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "tmp")
	old := filepath.Join(tmp, "put-crashed")
	fresh := filepath.Join(tmp, "put-inflight")
	foreign := filepath.Join(tmp, "editor-backup~")
	for _, p := range []string{old, fresh, foreign} {
		if err := os.WriteFile(p, []byte("staged bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * tmpGrace)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(foreign, stale, stale); err != nil {
		t.Fatal(err)
	}

	// "Restart" the daemon: the constructor reclaims the stale orphan.
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("stale put-* orphan survived NewDiskStore")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh staging file inside the grace period was removed")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("foreign tmp file was removed; cleanup must only touch put-*")
	}

	// A long-running daemon reclaims orphans during its GC pass too.
	reorphaned := filepath.Join(tmp, "put-leaked-later")
	if err := os.WriteFile(reorphaned, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(reorphaned, stale, stale); err != nil {
		t.Fatal(err)
	}
	st := s.Sweep(time.Now(), 0, 0)
	if st.TmpRemoved != 1 {
		t.Fatalf("Sweep.TmpRemoved = %d, want 1", st.TmpRemoved)
	}
	if _, err := os.Stat(reorphaned); !os.IsNotExist(err) {
		t.Fatal("stale orphan survived Sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("Sweep removed a staging file inside the grace period")
	}
}
