// Per-request scratch pools. The serving hot path used to allocate a
// fresh bufio.Reader, response assembly buffer, and pattern-slice
// backing per request; under concurrent load those dominated the
// allocation profile. All pooled objects are request-scoped: they are
// taken after the worker token is acquired and returned before the
// handler exits, and nothing that outlives the request — in particular
// a cached Result, whose Body the cache hands to every later hit — may
// alias pooled storage. compressBuffered therefore copies the assembled
// container out of the scratch buffer into an exact-size private slice.
package serve

import (
	"bufio"
	"bytes"
	"io"
	"sync"

	"repro/internal/testset"
)

var bufReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

func getBufReader(r io.Reader) *bufio.Reader {
	br := bufReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putBufReader(br *bufio.Reader) {
	br.Reset(nil) // drop the body reference before pooling
	bufReaderPool.Put(br)
}

var scratchPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

func getScratch() *bytes.Buffer {
	b := scratchPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putScratch(b *bytes.Buffer) {
	const maxPooled = 8 << 20 // don't let one huge response pin memory
	if b.Cap() <= maxPooled {
		scratchPool.Put(b)
	}
}

var testSetPool = sync.Pool{
	New: func() any { return &testset.TestSet{} },
}

// getTestSet returns an empty test set of the given width whose
// pattern-slice backing is recycled across requests. The tritvec
// patterns appended to it are freshly allocated by the scanner, so
// returning the set to the pool never invalidates data derived from it.
func getTestSet(width int) *testset.TestSet {
	ts := testSetPool.Get().(*testset.TestSet)
	ts.Width = width
	ts.Patterns = ts.Patterns[:0]
	return ts
}

func putTestSet(ts *testset.TestSet) {
	const maxPooledPatterns = 1 << 16
	if cap(ts.Patterns) > maxPooledPatterns {
		return
	}
	clear(ts.Patterns[:cap(ts.Patterns)]) // drop vector references
	ts.Patterns = ts.Patterns[:0]
	testSetPool.Put(ts)
}
