package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/testset"
)

// sized returns a Result whose body is n bytes.
func sized(n int) *Result { return &Result{Body: make([]byte, n)} }

// keys lists c's keys from most to least recently used.
func keys(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

func TestCacheLRUOrderAndBudget(t *testing.T) {
	c := NewCache(30)
	evictions := 0
	c.onEvict = func() { evictions++ }
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, sized(10))
	}
	if got := fmt.Sprint(keys(c)); got != "[c b a]" {
		t.Fatalf("order %s, want [c b a]", got)
	}
	// A hit makes "a" the most recent, so "b" is next out.
	if res, ok := c.Get("a"); !ok || len(res.Body) != 10 {
		t.Fatalf("Get(a) = %v, %v", res, ok)
	}
	c.Put("d", sized(10))
	if got := fmt.Sprint(keys(c)); got != "[d a c]" {
		t.Fatalf("order %s, want [d a c]", got)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if c.Bytes() != 30 || c.Len() != 3 || evictions != 1 {
		t.Fatalf("bytes=%d len=%d evictions=%d, want 30/3/1", c.Bytes(), c.Len(), evictions)
	}
	// One entry worth two: both oldest entries go, one hook call each.
	c.Put("e", sized(20))
	if got := fmt.Sprint(keys(c)); got != "[e d]" {
		t.Fatalf("order %s, want [e d]", got)
	}
	if c.Bytes() != 30 || evictions != 3 {
		t.Fatalf("bytes=%d evictions=%d, want 30/3", c.Bytes(), evictions)
	}
}

func TestCacheRejectsOversizeEntry(t *testing.T) {
	c := NewCache(30)
	c.Put("a", sized(10))
	c.Put("huge", sized(31))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("entry larger than the whole budget was cached")
	}
	if _, ok := c.Get("a"); !ok || c.Bytes() != 10 {
		t.Fatalf("oversize Put disturbed the cache: bytes=%d", c.Bytes())
	}
	c.Put("full", sized(20))
	if c.Bytes() != 30 || c.Len() != 2 {
		t.Fatalf("an entry that fills the budget exactly: bytes=%d len=%d", c.Bytes(), c.Len())
	}
}

func TestCachePutRefreshesExistingKey(t *testing.T) {
	c := NewCache(30)
	first := sized(10)
	c.Put("a", first)
	c.Put("b", sized(10))
	c.Put("a", sized(10))
	if got := fmt.Sprint(keys(c)); got != "[a b]" {
		t.Fatalf("order %s, want [a b]", got)
	}
	if res, _ := c.Get("a"); res != first {
		t.Fatal("a repeated Put replaced the cached result")
	}
	if c.Bytes() != 20 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 20/2", c.Bytes(), c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, max := range []int64{0, -1} {
		c := NewCache(max)
		c.onEvict = func() { t.Fatal("disabled cache evicted") }
		c.Put("a", sized(0))
		if _, ok := c.Get("a"); ok || c.Len() != 0 {
			t.Fatalf("maxBytes=%d: cache stored an entry", max)
		}
	}
}

// The cache key hashes the canonical text of the set. Its value for a
// fixed request is pinned, so a change in how that text is produced
// cannot move it unnoticed.
func TestCacheKeyPinned(t *testing.T) {
	req, ok := parseCompressQuery(httptest.NewRecorder(), url.Values{"codec": {"9chc"}, "seed": {"3"}, "k": {"12"}})
	if !ok {
		t.Fatal("query rejected")
	}
	ts := testset.Random(37, 20, 0.4, rand.New(rand.NewSource(5)))
	const want = "b4ce70f562339787415b896afb4c10d8176cc22ec6dfd838a9b1818a0310dba8"
	if got := req.cacheKey(ts); got != want {
		t.Fatalf("cache key %s, want %s", got, want)
	}
}
