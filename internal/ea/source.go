package ea

import (
	"math/rand"
	"sync"
)

// source continues the stream of rand.NewSource(seed) value for value,
// from a buffer that uniform crossover reads in place.
//
// math/rand's generator is additive lagged Fibonacci: its output n is
// output n-607 plus output n-273, mod 2^64. So the first 607 outputs of
// a math/rand source fill the buffer, and each refill turns it into the
// next 607 outputs with two add loops, without math/rand's seed table.
type source struct {
	vec  [longLag]uint64 // 607 consecutive outputs of the stream
	next int             // index in vec of the next output to return
}

// The lags of math/rand's generator.
const (
	longLag  = 607
	shortLag = 273
)

// seeders holds math/rand sources for Seed to draw a buffer from, so a
// run allocates one generator, its source, and not a second one to
// seed it.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0) }}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed restarts s at the first output of rand.NewSource(seed).
func (s *source) Seed(seed int64) {
	r := seeders.Get().(rand.Source64)
	r.Seed(seed)
	for i := range s.vec {
		s.vec[i] = r.Uint64()
	}
	seeders.Put(r)
	s.next = 0
}

// Uint64 returns the stream's next output.
func (s *source) Uint64() uint64 { return s.take(1)[0] }

// Int63 returns the next output without its top bit, as math/rand's
// source does.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// take returns the next outputs of the stream, at least one and at most
// n > 0, in the buffer itself, and counts them as returned.
func (s *source) take(n int) []uint64 {
	if s.next == longLag {
		s.refill()
	}
	v := s.vec[s.next:min(longLag, s.next+n)]
	s.next += len(v)
	return v
}

// refill replaces the buffer's outputs n..n+606 with n+607..n+1213.
// Output n+607+i is the old vec[i] plus output n+334+i: for i < 273
// that is still in the buffer at i+334, and for larger i it is the new
// value just written at i-273.
func (s *source) refill() {
	v := &s.vec
	for i := 0; i < shortLag; i++ {
		v[i] += v[i+longLag-shortLag]
	}
	for i := shortLag; i < longLag; i++ {
		v[i] += v[i-shortLag]
	}
	s.next = 0
}
