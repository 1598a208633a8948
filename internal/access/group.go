package access

import (
	"unsafe"

	"repro/internal/relation"
)

// groupSize is how many probes of a batch descend the join tree together.
// A single probe is a chain of dependent cache misses — bucket bounds, a
// binary search, the tuple, its columns, each child's bucket — so it runs
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

	// Bucket bounds (their lines were prefetched by the parent's pass). A
	// bucket of one tuple — the usual child bucket of a key join — needs no
	// search: every index below its total is in its only tuple, whose start
	// is 0. (A zero-weight tuple alone in its bucket makes the total 0 and
	// the bucket unreachable, so the tuple is never a dangling one.)
	var lo, hi [groupSize]int
	for p := 0; p < k; p++ {
		l, h := int(n.bucketOff[gs[p]]), int(n.bucketOff[gs[p]+1])
		if h-l == 1 {
			lo[p], hi[p] = l, l
			prefetcht0(unsafe.Pointer(&n.tupleIdx[l]))
			continue
		}
		lo[p], hi[p] = l, h
		mid := int(uint(l+h) >> 1)
		prefetcht0(unsafe.Pointer(&n.start[mid]))
		prefetcht0(unsafe.Pointer(&n.weight[mid]))
	}

	// The binary searches of subtreeAccess, one step per probe per round. A
	// probe that finishes turns js into the index within its tuple's subtree:
	// start[slot] is in cache, the search's last true test read it.
	for searching := true; searching; {
		searching = false
		for p := 0; p < k; p++ {
			l, h := lo[p], hi[p]
			if l >= h {
				continue
			}
			mid := int(uint(l+h) >> 1)
			if n.start[mid]+n.weight[mid] > js[p] {
				h = mid
			} else {
				l = mid + 1
			}
			lo[p], hi[p] = l, h
			if l >= h {
				js[p] -= n.start[l]
				prefetcht0(unsafe.Pointer(&n.tupleIdx[l]))
				continue
			}
			searching = true
			if h-l > searchPrefetchSpan {
				mid = int(uint(l+h) >> 1)
				prefetcht0(unsafe.Pointer(&n.start[mid]))
				prefetcht0(unsafe.Pointer(&n.weight[mid]))
			}
		}
	}

	// Slot → tuple position.
	var pos [groupSize]int32
	for p := 0; p < k; p++ {
		ps := n.tupleIdx[lo[p]]
		pos[p] = ps
		for _, col := range n.outVals {
			prefetcht0(unsafe.Pointer(&col[ps]))
		}
		for _, cg := range n.childGroup {
			prefetcht0(unsafe.Pointer(&cg[ps]))
		}
	}
	for p := 0; p < k; p++ {
		for c, col := range n.outCols {
			answers[p][col] = n.outVals[c][pos[p]]
		}
	}
	if len(n.children) == 0 {
		return
	}

	// SplitIndex for every probe (Algorithm 3 lines 12-13, last child least
	// significant), in two passes like the single probe's: child buckets
	// first, so their total and bounds are in flight before the divisions
	// read them.
	var cgs [maxSplitChildren][groupSize]uint32
	var jis [maxSplitChildren][groupSize]int64
	for ci, c := range n.children {
		for p := 0; p < k; p++ {
			cg := uint32(n.childGroup[ci][pos[p]])
			cgs[ci][p] = cg
			prefetcht0(unsafe.Pointer(&c.total[cg]))
			prefetcht0(unsafe.Pointer(&c.bucketOff[cg]))
		}
	}
	for p := 0; p < k; p++ {
		rem := js[p]
		for ci := len(n.children) - 1; ci >= 0; ci-- {
			ct := n.children[ci].total[cgs[ci][p]]
			jis[ci][p] = rem % ct
			rem /= ct
		}
	}
	for ci, c := range n.children {
		idx.subtreeAccessGroup(c, cgs[ci][:], jis[ci][:], k, answers)
	}
}
