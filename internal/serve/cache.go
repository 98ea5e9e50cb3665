package serve

import (
	"container/list"
	"sync"

	tcomp "repro"
)

// Cache is the content-addressed result cache: SHA-256 of (canonical
// input, codec, resolved parameters) → the exact container bytes a fresh
// compression would produce. The mapping is sound because the engine
// made compressed output a pure function of that key — worker count,
// scheduling, and chunk arrival order never change the bytes (PR 1/3
// determinism) — so serving a cached artifact is indistinguishable from
// recompressing, minus the CPU.
//
// It is a plain LRU of *Result by request key, bounded by the total
// size of the cached bodies. Entries larger than the whole budget are
// rejected rather than evicting everything else.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
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

// cacheEntry is one LRU element: the request key and its result.
type cacheEntry struct {
	key string
	res *Result
}

// NewCache returns a cache bounded to maxBytes of cached body bytes.
// maxBytes <= 0 disables caching: Get always misses and Put is a no-op.
func NewCache(maxBytes int64) *Cache {
	return &Cache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the cached artifact for key, marking it most recently
// used. The returned Result is shared — callers must treat it as
// read-only.
func (c *Cache) Get(key string) (*Result, bool) {
	if c == nil || c.maxBytes <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting least-recently-used entries until
// the byte budget holds. The cache keeps res itself, so its Body must
// not alias memory the caller reuses. Storing an existing key refreshes
// its recency (the bytes are identical by construction — the key fixes
// them).
func (c *Cache) Put(key string, res *Result) {
	if c == nil || c.maxBytes <= 0 || int64(len(res.Body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.size += int64(len(res.Body))
	for c.size > c.maxBytes {
		e := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.items, e.key)
		c.size -= int64(len(e.res.Body))
		if c.onEvict != nil {
			c.onEvict()
		}
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
