package serve

import (
	"bytes"
	"container/list"
	"io"
	"sync"

	tcomp "repro"
	"repro/internal/artifact"
)

// Cache is the content-addressed result cache: SHA-256 of (canonical
// input, codec, resolved parameters) → the exact container bytes a fresh
// compression would produce. The mapping is sound because the engine
// made compressed output a pure function of that key — worker count,
// scheduling, and chunk arrival order never change the bytes (PR 1/3
// determinism) — so serving a cached artifact is indistinguishable from
// recompressing, minus the CPU.
//
// The cache is a thin index over an artifact.Store: it maps request keys
// to blob digests and keeps the stats sidecar, while the store owns the
// bytes. Two request keys whose outputs happen to be byte-identical
// share one blob (the store is content-addressed), which the eviction
// path respects by reference counting. Eviction is plain LRU by request
// key, bounded by total blob size. Entries larger than the whole budget
// are rejected rather than evicting everything else.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	store    artifact.Store
	size     int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	refs     map[artifact.Digest]int
	// onEvict, when set, is called (under the cache lock) once per
	// evicted entry — the metrics hook.
	onEvict func()
}

// Result is one compressed artifact plus the size accounting the
// response headers report; it is what the cache stores and returns.
type Result struct {
	Body []byte
	tcomp.ContainerStats
}

// cacheEntry is the index record: digest plus the stats sidecar. The
// body bytes live in the store.
type cacheEntry struct {
	key    string
	digest artifact.Digest
	size   int64
	meta   Result // Body nil; filled in on Get
}

// NewCache returns a cache bounded to maxBytes of stored artifact bytes,
// backed by a private in-memory artifact store. maxBytes <= 0 disables
// caching: Get always misses and Put is a no-op.
func NewCache(maxBytes int64) *Cache {
	return NewCacheWithStore(maxBytes, artifact.NewMemStore())
}

// NewCacheWithStore returns a cache layered over the given artifact
// store. The cache assumes ownership of the blobs it Puts: eviction
// deletes them (per-digest reference counted), so hand it a store of its
// own rather than one shared with the job manager.
func NewCacheWithStore(maxBytes int64, store artifact.Store) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		store:    store,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		refs:     map[artifact.Digest]int{},
	}
}

// Get returns the cached artifact for key, marking it most recently
// used. The returned Result is shared — callers must treat it as
// read-only.
func (c *Cache) Get(key string) (*Result, bool) {
	if c == nil || c.maxBytes <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()

	body, err := c.readBlob(e.digest)
	if err != nil {
		// The store and the index disagree (a shared store's GC, bit rot
		// caught by the digest check). Heal: drop the entry and miss.
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.removeEntry(el)
		}
		c.mu.Unlock()
		return nil, false
	}
	res := e.meta
	res.Body = body
	return &res, true
}

// readBlob fetches the entry's bytes, zero-copy when the backing store
// supports it (a cache hit then costs no allocation at all).
func (c *Cache) readBlob(d artifact.Digest) ([]byte, error) {
	if ms, ok := c.store.(*artifact.MemStore); ok {
		if b, ok := ms.GetNoCopy(d); ok {
			return b, nil
		}
		return nil, artifact.ErrNotFound
	}
	rc, err := c.store.Open(d)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// Put stores res under key, evicting least-recently-used entries until
// the byte budget holds. Storing an existing key refreshes its recency
// (the bytes are identical by construction — the key fixes them).
func (c *Cache) Put(key string, res *Result) {
	if c == nil || c.maxBytes <= 0 || int64(len(res.Body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// The store write happens outside the lock (DiskStore Puts do I/O).
	d, n, err := c.store.Put(bytes.NewReader(res.Body))
	if err != nil {
		return // a cache store failure only costs the cache entry
	}
	meta := *res
	meta.Body = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Lost a Put race for the same key; keep the winner.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, digest: d, size: n, meta: meta})
	c.refs[d]++
	c.size += n
	for c.size > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		c.removeEntry(el)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// removeEntry drops one index entry and, when no other key references
// the blob, deletes it from the store. Caller holds c.mu.
func (c *Cache) removeEntry(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.items, e.key)
	c.size -= e.size
	c.refs[e.digest]--
	if c.refs[e.digest] <= 0 {
		delete(c.refs, e.digest)
		_ = c.store.Delete(e.digest) // best-effort: an orphan blob falls to GC
	}
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total cached artifact size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
