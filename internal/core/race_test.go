//go:build race

package core

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random, so the pooled fitness path allocates a fresh sizer now and
// then.
const raceEnabled = true
