// Package mvheur constructs matching-vector sets heuristically, without
// evolutionary search: the most frequent input blocks become matching
// vectors directly, and a merge pass generalizes near-identical vectors
// by introducing U positions. It serves two purposes: a strong non-EA
// baseline for ablation (how much of the paper's gain is the EA, how much
// the generalized problem formulation), and a seeding source for the EA's
// initial population.
package mvheur

import (
	"sort"

	"repro/internal/blockcode"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Options tunes the heuristic.
type Options struct {
	// MergeThreshold is the maximum specified-Hamming distance at which
	// two candidate vectors are merged into a generalized one (default 2).
	MergeThreshold int
	// MergePasses bounds the number of merge sweeps (default 3).
	MergePasses int
}

// DefaultOptions returns the defaults.
func DefaultOptions() Options { return Options{MergeThreshold: 2, MergePasses: 3} }

// Greedy builds an MV set of at most l vectors of length k for the
// blocks of ms. The last vector is always all-U, so covering cannot fail.
func Greedy(ms *blockcode.BlockMultiset, k, l int, opt Options) *blockcode.MVSet {
	if opt.MergeThreshold <= 0 {
		opt.MergeThreshold = 2
	}
	if opt.MergePasses <= 0 {
		opt.MergePasses = 3
	}
	type cand struct {
		v     tritvec.Vector
		count int
	}
	cands := make([]cand, len(ms.Blocks))
	for i := range ms.Blocks {
		// A block's X positions become U positions of the MV: the MV
		// then matches the block and all its specializations.
		cands[i] = cand{ms.Blocks[i].Clone(), ms.Counts[i]}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].count > cands[j].count })

	// Merge passes: combine near-identical high-frequency candidates by
	// generalizing conflicting positions to U. Each merge frees a slot
	// for another frequent block.
	for pass := 0; pass < opt.MergePasses; pass++ {
		merged := false
		limit := len(cands)
		if limit > 4*l {
			limit = 4 * l // only the slots that can matter
		}
		for i := 0; i < limit && !merged; i++ {
			for j := i + 1; j < limit; j++ {
				if cands[i].v.HammingSpecified(cands[j].v) > opt.MergeThreshold {
					continue
				}
				g := generalize(cands[i].v, cands[j].v)
				// Accept the merge only if it does not dissolve into
				// (almost) all-U: keep at least half the positions
				// specified.
				if g.CountSpecified()*2 < g.Len() {
					continue
				}
				cands[i] = cand{g, cands[i].count + cands[j].count}
				cands = append(cands[:j], cands[j+1:]...)
				merged = true
				break
			}
		}
		if !merged {
			break
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].count > cands[j].count })
	}

	n := l - 1
	if n > len(cands) {
		n = len(cands)
	}
	mvs := make([]tritvec.Vector, 0, n+1)
	for i := 0; i < n; i++ {
		mvs = append(mvs, cands[i].v)
	}
	mvs = append(mvs, tritvec.New(k)) // all-U backstop
	return &blockcode.MVSet{K: k, MVs: mvs}
}

// generalize returns a vector that matches everything a and b match:
// positions where both agree stay specified; all others become U.
func generalize(a, b tritvec.Vector) tritvec.Vector {
	out := tritvec.New(a.Len())
	for i := 0; i < a.Len(); i++ {
		va, vb := a.Get(i), b.Get(i)
		if va == vb && va != tritvec.X {
			out.Set(i, va)
		}
	}
	return out
}

// Compress runs the heuristic end to end: build the MV set, cover,
// Huffman-encode, emit the stream.
func Compress(ts *testset.TestSet, k, l int, opt Options) (*blockcode.Result, error) {
	ms := blockcode.Dedup(blockcode.Partition(ts, k))
	return blockcode.CompressHuffman(ms, Greedy(ms, k, l, opt), ts.TotalBits())
}

// Rate is a sizing-only variant used in fitness-style comparisons.
func Rate(ts *testset.TestSet, k, l int, opt Options) (float64, error) {
	ms := blockcode.Dedup(blockcode.Partition(ts, k))
	res, err := Greedy(ms, k, l, opt).BuildHuffman(ms, ts.TotalBits())
	if err != nil {
		return 0, err
	}
	return res.RatePercent(), nil
}
