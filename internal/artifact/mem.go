package artifact

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"
)

// MemStore is the in-memory Store: the test double for DiskStore and
// the job manager's store when tcompd runs without -store-dir. Same
// contract, same GC policy, no disk.
type MemStore struct {
	mu    sync.Mutex
	blobs map[Digest][]byte
	index map[Digest]*entry
	total int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: map[Digest][]byte{}, index: map[Digest]*entry{}}
}

// Put buffers and stores the reader's bytes.
func (s *MemStore) Put(r io.Reader) (Digest, int64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return "", 0, err // the producer's error is the story; keep it unwrapped
	}
	d := SumBytes(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[d]; ok {
		e.lastUsed = time.Now()
		return d, int64(len(b)), nil
	}
	s.blobs[d] = b
	s.index[d] = &entry{size: int64(len(b)), lastUsed: time.Now()}
	s.total += int64(len(b))
	return d, int64(len(b)), nil
}

// Open returns a reader over the blob and refreshes its last-use time.
func (s *MemStore) Open(d Digest) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[d]
	if !ok {
		return nil, fmt.Errorf("artifact: open %s: %w", short(d), ErrNotFound)
	}
	s.index[d].lastUsed = time.Now()
	return io.NopCloser(bytes.NewReader(b)), nil
}

// Stat returns the blob's metadata without touching recency.
func (s *MemStore) Stat(d Digest) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[d]
	if !ok {
		return Info{}, fmt.Errorf("artifact: stat %s: %w", short(d), ErrNotFound)
	}
	return Info{Digest: d, Size: e.size, LastUsed: e.lastUsed}, nil
}

// Delete removes the blob.
func (s *MemStore) Delete(d Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[d]
	if !ok {
		return fmt.Errorf("artifact: delete %s: %w", short(d), ErrNotFound)
	}
	delete(s.index, d)
	delete(s.blobs, d)
	s.total -= e.size
	return nil
}

// Sweep applies TTL expiry and LRU quota eviction.
func (s *MemStore) Sweep(now time.Time, ttl time.Duration, quota int64) SweepStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sweepIndex(s.index, s.total, now, ttl, quota, func(d Digest) {
		e := s.index[d]
		delete(s.index, d)
		delete(s.blobs, d)
		s.total -= e.size
	})
}

// Len returns the number of stored blobs.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total stored size.
func (s *MemStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
