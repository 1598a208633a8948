package access

import (
	"unsafe"

	"repro/internal/relation"
)

// groupSize is how many probes of a batch descend the join tree together.
// A single probe is a chain of dependent cache misses — bucket bounds, a
// binary search, the slot's columns, each child's bucket — so it runs
// at the latency of memory. A group takes every step for all its probes
// before the next step of any: the loads of one step are independent, the
// prefetches of a step are issued a whole pass before the lines are read,
// and the misses overlap (group prefetching: Chen et al., ICDE 2004).
// Sixteen probes keep the per-node scratch of a descent in a few cache
// lines of stack and are more than the ten or so misses a core keeps in
// flight.
const groupSize = 16

// searchPrefetchSpan is the remaining search range, in slots, above which
// the next midpoint is worth a prefetch: below it the midpoint is within a
// cache line (eight int64) of one just read.
const searchPrefetchSpan = 8

// subtreeAccessGroup is subtreeAccess for k ≤ groupSize probes at once:
// probe p resolves index js[p] within bucket gs[p] of node n into
// answers[p]. Every (gs[p], js[p]) must be valid, as for subtreeAccess.
func (idx *Index) subtreeAccessGroup(n *node, gs []uint32, js []int64, k int, answers []relation.Tuple) {
	if len(n.children) > maxSplitChildren {
		for p := 0; p < k; p++ {
			idx.subtreeAccess(n, gs[p], js[p], answers[p])
		}
		return
	}

	// A slot is a row: its cells were prefetched when it was found — by the
	// parent's split at a leaf, by the search's last step above.
	var slot [groupSize]int
	if n.leaf() {
		// Every leaf weight is 1: no search.
		for p := 0; p < k; p++ {
			slot[p] = int(n.bucketOff[gs[p]]) + int(js[p])
		}
	} else {
		n.searchBucketGroup(gs, js, k, &slot)
	}
	for p := 0; p < k; p++ {
		for c, col := range n.outCols {
			answers[p][col] = n.outVals[c][slot[p]]
		}
	}
	if n.leaf() {
		return
	}

	// SplitIndex for every probe (Algorithm 3 lines 12-13, last child least
	// significant), in two passes like the single probe's: child buckets
	// first, so their total and bounds are in flight before the divisions
	// read them. A leaf child's total is its bucket length, read from the
	// bounds; once its sub-index is known, so is its slot.
	var cgs [maxSplitChildren][groupSize]uint32
	var jis [maxSplitChildren][groupSize]int64
	for ci, c := range n.children {
		for p := 0; p < k; p++ {
			cg := uint32(n.childGroup[ci][slot[p]])
			cgs[ci][p] = cg
			if !c.leaf() {
				relation.Prefetch(unsafe.Pointer(&c.total[cg]))
			}
			relation.Prefetch(unsafe.Pointer(&c.bucketOff[cg]))
		}
	}
	for p := 0; p < k; p++ {
		rem := js[p]
		for ci := len(n.children) - 1; ci >= 0; ci-- {
			c, cg := n.children[ci], cgs[ci][p]
			ct := c.bucketTotal(cg)
			ji := rem % ct
			rem /= ct
			jis[ci][p] = ji
			if c.leaf() {
				c.prefetchSlot(int(c.bucketOff[cg]) + int(ji))
			}
		}
	}
	for ci, c := range n.children {
		idx.subtreeAccessGroup(c, cgs[ci][:], jis[ci][:], k, answers)
	}
}

// searchBucketGroup is searchBucket for k probes of inner node n in
// lockstep, one step per probe per round: slot[p] receives the slot of
// bucket gs[p] whose range holds js[p], and js[p] becomes the index within
// that slot's range — start[slot] is in cache, the last test that moved lo
// read it. A probe's slot cells are prefetched as soon as its search ends.
func (n *node) searchBucketGroup(gs []uint32, js []int64, k int, slot *[groupSize]int) {
	// Bucket bounds (their lines were prefetched by the parent's pass). A
	// bucket of one tuple — the usual child bucket of a key join — leaves
	// nothing to search, and its tuple starts at 0.
	var lo, hi [groupSize]int
	for p := 0; p < k; p++ {
		l, h := int(n.bucketOff[gs[p]])+1, int(n.bucketOff[gs[p]+1])
		lo[p], hi[p] = l, h
		if l < h {
			relation.Prefetch(unsafe.Pointer(&n.start[int(uint(l+h)>>1)]))
		} else {
			n.prefetchSlot(l - 1)
		}
	}
	for searching := true; searching; {
		searching = false
		for p := 0; p < k; p++ {
			l, h := lo[p], hi[p]
			if l >= h {
				continue
			}
			mid := int(uint(l+h) >> 1)
			if n.start[mid] > js[p] {
				h = mid
			} else {
				l = mid + 1
			}
			lo[p], hi[p] = l, h
			if l >= h {
				js[p] -= n.start[l-1]
				n.prefetchSlot(l - 1)
				continue
			}
			searching = true
			if h-l > searchPrefetchSpan {
				relation.Prefetch(unsafe.Pointer(&n.start[int(uint(l+h)>>1)]))
			}
		}
	}
	for p := 0; p < k; p++ {
		slot[p] = lo[p] - 1
	}
}
