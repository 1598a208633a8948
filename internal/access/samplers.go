package access

import (
	"math/rand"

	"repro/internal/relation"
)

// This file hosts the single-trial uniform samplers used as the baseline of
// Section 6 (Zhao et al., "Random sampling over joins revisited"): each draws
// one uniform answer with replacement, differing in how much weight
// information it exploits and hence in how often it rejects. The
// with-replacement → k-distinct-answers wrapper (duplicate elimination) lives
// in internal/sample.
//
// Exact correspondence with Zhao et al.'s initializations is impossible
// without their code; the substitutes preserve the property the paper's
// experiments rely on: EW never rejects, EO and OE reject at rates driven by
// weight/fanout skew, RS rejects almost always. Each sampler below is
// provably uniform over Q(D) conditioned on acceptance:
//
//   - SampleEW:    P(a) = 1/count                           (no rejection)
//   - SampleEOTrial: P(a) = 1/(|R_root| · maxW_root)        (root rejection)
//   - SampleOETrial: P(a) = 1/∏_n maxBucketSize_n           (path rejection)
//   - SampleRSTrial: P(a) = 1/∏_n |R_n|                     (full rejection)

// Bounds are the rejection bounds of the EO and OE trials: the largest
// weight of a root tuple and, per node, the largest bucket. Only these
// baselines read them, so the index does not keep them; BaselineBounds
// derives them.
type Bounds struct {
	rootMaxW     int64
	maxBucketLen []int64 // by node ordinal
}

// BaselineBounds derives the EO and OE bounds in one pass over the index's
// slots: O(tuples), once per sampler.
func (idx *Index) BaselineBounds() *Bounds {
	b := &Bounds{maxBucketLen: make([]int64, len(idx.nodes))}
	for _, n := range idx.nodes {
		for g := uint32(0); int(g) < n.grouping.NumGroups(); g++ {
			b.maxBucketLen[n.ord] = max(b.maxBucketLen[n.ord], int64(n.bucketLen(g)))
		}
	}
	if root := idx.root; root.grouping.NumGroups() > 0 {
		for slot := root.bucketOff[0]; slot < root.bucketOff[1]; slot++ {
			lo, hi := root.slotSpan(0, slot)
			b.rootMaxW = max(b.rootMaxW, hi-lo)
		}
	}
	return b
}

// SampleEW draws a uniform answer using exact weights: equivalent to
// Access(Uniform(0, Count())) — the EW initialization. Never rejects; ok is
// false only when the answer set is empty.
func (idx *Index) SampleEW(rng *rand.Rand) (relation.Tuple, bool) {
	if idx.count == 0 {
		return nil, false
	}
	t, err := idx.Access(rng.Int63n(idx.count))
	if err != nil {
		return nil, false
	}
	return t, true
}

// SampleEOTrial performs one trial of Olken-style rejection at the root: a
// uniformly random root tuple t is accepted with probability w(t)/maxW, and
// on acceptance the rest of the answer is completed exactly (a uniform split
// of t's weight range). P(accept) = count / (|R_root| · maxW_root), so skewed
// roots reject often. ok=false means the trial rejected; the caller retries.
// b must be idx's BaselineBounds.
func (idx *Index) SampleEOTrial(rng *rand.Rand, b *Bounds) (relation.Tuple, bool) {
	if idx.count == 0 {
		return nil, false
	}
	root := idx.root
	// Root bucket 0 starts at slot 0.
	lo, hi := root.slotSpan(0, int32(rng.Intn(root.bucketLen(0))))
	w := hi - lo
	if w == 0 || (w < b.rootMaxW && rng.Int63n(b.rootMaxW) >= w) {
		return nil, false
	}
	// Complete exactly: a uniform index within this tuple's range.
	j := lo + rng.Int63n(w)
	answer := make(relation.Tuple, len(idx.head))
	idx.subtreeAccess(root, 0, j, answer)
	return answer, true
}

// SampleOETrial performs one trial of a wander-join-style walk with end
// rejection: pick a uniformly random tuple in every visited bucket walking
// root to leaves, then accept with probability ∏ |B|/maxBucketSize. The walk
// probability of an answer is ∏ 1/|B|, so the acceptance factor makes the
// result exactly uniform. ok=false means rejection. b must be idx's
// BaselineBounds.
func (idx *Index) SampleOETrial(rng *rand.Rand, b *Bounds) (relation.Tuple, bool) {
	if idx.count == 0 {
		return nil, false
	}
	answer := make(relation.Tuple, len(idx.head))
	prob := 1.0
	if !idx.wanderWalk(idx.root, 0, rng, b, answer, &prob) {
		return nil, false
	}
	// Accept with probability ∏ |B| / ∏ maxBucketSize (tracked as a float64;
	// the tiny rounding error is irrelevant for a baseline sampler).
	if rng.Float64() >= prob {
		return nil, false
	}
	return answer, true
}

func (idx *Index) wanderWalk(n *node, g uint32, rng *rand.Rand, b *Bounds, answer relation.Tuple, prob *float64) bool {
	sz := n.bucketLen(g)
	if sz == 0 {
		return false
	}
	slot := n.bucketOff[g] + int32(rng.Intn(sz))
	if lo, hi := n.slotSpan(g, slot); lo == hi {
		// Dangling tuple (only without full reduction): dead end, reject.
		return false
	}
	*prob *= float64(sz) / float64(b.maxBucketLen[n.ord])
	for k, col := range n.outCols {
		answer[col] = n.outVals[k][slot]
	}
	for ci, c := range n.children {
		cg := n.childGroup[ci][slot]
		if cg < 0 {
			return false
		}
		if !idx.wanderWalk(c, uint32(cg), rng, b, answer, prob) {
			return false
		}
	}
	return true
}

// SampleRSTrial performs one trial of the fully naive sampler: a uniformly
// random tuple from every node's relation, accepted only when the picks are
// join consistent along the tree. Each answer corresponds to exactly one pick
// vector, so acceptance yields a uniform answer. ok=false means rejection.
func (idx *Index) SampleRSTrial(rng *rand.Rand) (relation.Tuple, bool) {
	if idx.count == 0 {
		return nil, false
	}
	picks := make([]int, len(idx.nodes))
	for i, n := range idx.nodes {
		if n.rel.Len() == 0 {
			return nil, false
		}
		picks[i] = rng.Intn(n.rel.Len())
	}
	// Join consistency along every tree edge: compare the shared-attribute
	// columns directly (no key encoding needed).
	var check func(n *node) bool
	check = func(n *node) bool {
		pos := picks[n.ord]
		for ci, c := range n.children {
			cpos := picks[c.ord]
			keyPos := n.childKeyPos[ci]
			for k := range keyPos {
				if n.rel.At(pos, keyPos[k]) != c.rel.At(cpos, c.pAttPos[k]) {
					return false
				}
			}
			if !check(c) {
				return false
			}
		}
		return true
	}
	if !check(idx.root) {
		return nil, false
	}
	// A consistent combination may still involve weight-zero (dangling)
	// tuples when full reduction was skipped; consistency along all tree
	// edges already implies a real answer, so no extra check is needed.
	answer := make(relation.Tuple, len(idx.head))
	for _, n := range idx.nodes {
		pos := picks[n.ord]
		for k, col := range n.outCols {
			answer[col] = n.outVals[k][pos]
		}
	}
	return answer, true
}
