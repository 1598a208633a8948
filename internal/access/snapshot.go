// Snapshot encoding of the weighted join-tree index. The build-time shape —
// flat contiguous arrays addressed by integer bucket IDs — serializes as-is:
// every numeric section the index keeps (columns, bucket offset tables,
// prefix sums and totals, child-ID arrays, group IDs) restores as a
// zero-copy view of the snapshot mapping, so reopening an index is
// O(validate) instead of O(preprocess). Format version 1 also carries
// per-slot weights, per-bucket maximum weights and the leaves' prefix sums
// and totals, which the index no longer keeps: the writer derives them and
// the reader validates and drops them. Derived wiring (schemaHeadPos, output
// assignment, the parent↔child shared-attribute positions) is recomputed
// through the same helpers the builder uses.
package access

import (
	"repro/internal/relation"
	"repro/internal/snapshot"
)

// Marshal appends the index to a section writer: head, then every node in
// tree order (parent link, backing relation, grouping, flattened buckets,
// resolved child-bucket arrays).
func (idx *Index) Marshal(s *snapshot.SectionWriter) {
	s.U64(uint64(len(idx.head)))
	for _, h := range idx.head {
		s.Str(h)
	}
	parentOf := make([]int64, len(idx.nodes))
	for i := range parentOf {
		parentOf[i] = -1
	}
	for _, n := range idx.nodes {
		for _, c := range n.children {
			parentOf[c.ord] = int64(n.ord)
		}
	}
	s.U64(uint64(len(idx.nodes)))
	for _, n := range idx.nodes {
		s.I64(parentOf[n.ord])
		relation.MarshalRelation(s, n.rel)
		s.U64(uint64(n.grouping.NumGroups()))
		s.U32s(n.grouping.GroupOf)
		s.I32s(n.bucketOff)
		s.I32s(n.tupleIdx)
		s.I32s(n.tupleOrd)
		weight, start, total, maxW := n.fileAggregates()
		s.I64s(weight)
		s.I64s(start)
		s.I64s(total)
		s.I64s(maxW)
		s.U64(uint64(len(n.childGroup)))
		for _, cg := range n.childGroup {
			s.I32s(cg)
		}
	}
}

// fileAggregates returns the four aggregate sections of format version 1:
// w(t) and startIndex(t) per slot, w(B) and the largest w(t) per bucket. The
// index keeps only start and total, and only at inner nodes; the rest is
// derived here so the file stays byte for byte what earlier builds wrote.
func (n *node) fileAggregates() (weight, start, total, maxW []int64) {
	nrows, ng := n.rel.Len(), n.grouping.NumGroups()
	weight, maxW = make([]int64, nrows), make([]int64, ng)
	// An inner node's own arrays may be read-only views of a mapped file:
	// only a leaf's are built here.
	start, total = n.start, n.total
	if n.leaf() {
		start, total = make([]int64, nrows), make([]int64, ng)
	}
	for g := uint32(0); int(g) < ng; g++ {
		for slot := n.bucketOff[g]; slot < n.bucketOff[g+1]; slot++ {
			lo, hi := n.slotSpan(g, slot)
			weight[slot] = hi - lo
			maxW[g] = max(maxW[g], hi-lo)
			if n.leaf() {
				start[slot] = lo
			}
		}
		if n.leaf() {
			total[g] = n.bucketTotal(g)
		}
	}
	return weight, start, total, maxW
}

// restoredNode is one node as read back, before tree wiring.
type restoredNode struct {
	n            *node
	parentOrd    int64
	numGroups    int
	childN       int
	childCG      [][]int32
	weight, maxW []int64 // validated, then dropped
}

// UnmarshalIndex restores an index from a section reader. All structural
// invariants that memory safety of the probe paths depends on — array
// lengths, monotone bucket offsets, in-range tuple positions and child
// bucket IDs, tree shape — are validated; a violation is a typed
// snapshot.ErrCorrupt, never a panic. Weights and prefix sums are trusted
// as data (the section checksum vouches for them).
func UnmarshalIndex(r *snapshot.Reader) (*Index, error) {
	idx := &Index{}
	nh := r.U64()
	if nh > uint64(r.Remaining()/8) {
		return nil, snapshot.Corruptf("index: head count %d exceeds payload", nh)
	}
	idx.head = make([]string, nh)
	for i := range idx.head {
		idx.head[i] = r.Str()
	}
	numNodes := r.U64()
	if numNodes == 0 || numNodes > uint64(r.Remaining()/8) {
		return nil, snapshot.Corruptf("index: implausible node count %d", numNodes)
	}
	nodes := make([]restoredNode, numNodes)
	for i := range nodes {
		rn := &nodes[i]
		rn.parentOrd = r.I64()
		rel, err := relation.UnmarshalRelation(r)
		if err != nil {
			return nil, err
		}
		n := &node{rel: rel, ord: i}
		rn.n = n
		rn.numGroups = int(r.U64())
		groupOf := r.U32s()
		n.bucketOff = r.I32s()
		n.tupleIdx = r.I32s()
		n.tupleOrd = r.I32s()
		rn.weight = r.I64s()
		n.start = r.I64s()
		n.total = r.I64s()
		rn.maxW = r.I64s()
		rn.childN = int(r.U64())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if rn.childN < 0 || rn.childN > r.Remaining()/8 {
			return nil, snapshot.Corruptf("index node %d: implausible child count %d", i, rn.childN)
		}
		rn.childCG = make([][]int32, rn.childN)
		for ci := range rn.childCG {
			rn.childCG[ci] = r.I32s()
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		nrows := rel.Len()
		ng := rn.numGroups
		if ng < 0 || ng > nrows {
			return nil, snapshot.Corruptf("index node %d: %d groups over %d tuples", i, ng, nrows)
		}
		if len(groupOf) != nrows || len(n.tupleIdx) != nrows || len(n.tupleOrd) != nrows ||
			len(rn.weight) != nrows || len(n.start) != nrows {
			return nil, snapshot.Corruptf("index node %d: per-tuple array lengths do not match %d tuples", i, nrows)
		}
		if len(n.bucketOff) != ng+1 || len(n.total) != ng || len(rn.maxW) != ng {
			return nil, snapshot.Corruptf("index node %d: per-bucket array lengths do not match %d groups", i, ng)
		}
		if n.bucketOff[0] != 0 || int(n.bucketOff[ng]) != nrows {
			return nil, snapshot.Corruptf("index node %d: bucket offsets do not cover %d tuples", i, nrows)
		}
		for g := 0; g < ng; g++ {
			if n.bucketOff[g] > n.bucketOff[g+1] {
				return nil, snapshot.Corruptf("index node %d: bucket offsets not monotone at %d", i, g)
			}
		}
		var err2 error
		n.grouping, err2 = relation.RestoreGrouping(groupOf, ng, 0)
		if err2 != nil {
			return nil, err2
		}
	}
	// Wire the tree: children attach to parents in node order, exactly the
	// order the builder appended them, so childGroup columns line up.
	for i := range nodes {
		rn := &nodes[i]
		p := rn.parentOrd
		switch {
		case p == -1:
			if idx.root != nil {
				return nil, snapshot.Corruptf("index: two roots")
			}
			idx.root = rn.n
		case p < 0 || p >= int64(numNodes) || p == int64(i):
			return nil, snapshot.Corruptf("index node %d: bad parent %d", i, p)
		default:
			if err := nodes[p].n.linkChild(rn.n); err != nil {
				return nil, snapshot.Corruptf("index node %d: %v", i, err)
			}
		}
		idx.nodes = append(idx.nodes, rn.n)
	}
	if idx.root == nil {
		return nil, snapshot.Corruptf("index: no root")
	}
	// A parent array with one root and no self-loops can still encode a
	// cycle among non-root nodes; reachability from the root rules it out.
	reached := 0
	var walk func(n *node)
	walk = func(n *node) {
		reached++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(idx.root)
	if reached != len(idx.nodes) {
		return nil, snapshot.Corruptf("index: %d of %d nodes reachable from the root", reached, len(idx.nodes))
	}

	// Per-edge validation + width fixup now that pAttPos is recomputed.
	for i := range nodes {
		rn := &nodes[i]
		n := rn.n
		if rn.childN != len(n.children) {
			return nil, snapshot.Corruptf("index node %d: %d child-group arrays for %d children", i, rn.childN, len(n.children))
		}
		n.childGroup = rn.childCG
		nrows := n.rel.Len()
		for ci, c := range n.children {
			cg := n.childGroup[ci]
			if len(cg) != nrows {
				return nil, snapshot.Corruptf("index node %d child %d: %d entries for %d tuples", i, ci, len(cg), nrows)
			}
			childNG := c.grouping.NumGroups()
			for pos, g := range cg {
				if g < -1 || int(g) >= childNG {
					return nil, snapshot.Corruptf("index node %d child %d: tuple %d resolves to bucket %d of %d", i, ci, pos, g, childNG)
				}
			}
		}
	}

	// Semantic validation: re-run Algorithm 2's aggregation as a check.
	// After it, every probe path is panic-free on this structure — the
	// binary search always lands inside its bucket, the mixed-radix
	// decomposition never divides by zero, and inverted access never
	// indexes out of range — so even a hostile file that defeated the
	// checksums cannot crash a probe, only answer wrong.
	for i, n := range idx.nodes {
		if err := n.validateAggregates(i, nodes[i].weight, nodes[i].maxW); err != nil {
			return nil, err
		}
	}
	// Validated, a leaf's aggregates are what leaf arithmetic computes (every
	// weight 1), and every weight is a difference of starts: the index keeps
	// only the inner nodes' start and total views.
	for _, n := range idx.nodes {
		if n.leaf() {
			n.start, n.total = nil, nil
		}
	}

	if err := idx.wireOutputs(); err != nil {
		return nil, snapshot.Corruptf("%v", err)
	}
	for _, n := range idx.nodes {
		n.outVals = make([][]relation.Value, len(n.outPos))
		for k, p := range n.outPos {
			n.outVals[k] = n.rel.Col(p)
		}
	}
	if idx.root.grouping.NumGroups() > 0 {
		if idx.root.grouping.NumGroups() != 1 {
			return nil, snapshot.Corruptf("index: root has %d buckets, want at most 1", idx.root.grouping.NumGroups())
		}
		idx.count = idx.root.bucketTotal(0)
		if idx.count < 0 {
			return nil, snapshot.Corruptf("index: negative answer count %d", idx.count)
		}
	}
	return idx, nil
}

// validateAggregates checks the Algorithm 2 invariants the probe paths'
// memory safety rests on: per bucket, start is the running prefix sum of
// non-negative weights with total and maxW matching; tupleOrd is the exact
// inverse of the in-bucket tuple layout; and every slot's weight equals the
// product of its resolved child-bucket totals (zero exactly when a child
// bucket is missing). Runs after children are wired. O(n) per node.
func (n *node) validateAggregates(ord int, weight, maxW []int64) error {
	nrows := n.rel.Len()
	ng := n.grouping.NumGroups()
	for g := 0; g < ng; g++ {
		var running, mx int64
		for slot := n.bucketOff[g]; slot < n.bucketOff[g+1]; slot++ {
			w := weight[slot]
			if w < 0 {
				return snapshot.Corruptf("index node %d: negative weight at slot %d", ord, slot)
			}
			if n.start[slot] != running {
				return snapshot.Corruptf("index node %d: start[%d] = %d, want prefix sum %d", ord, slot, n.start[slot], running)
			}
			running += w
			if running < 0 {
				return snapshot.Corruptf("index node %d: weight overflow in bucket %d", ord, g)
			}
			if w > mx {
				mx = w
			}
			if ti := n.tupleIdx[slot]; ti < 0 || int(ti) >= nrows {
				return snapshot.Corruptf("index node %d: tuple index %d out of range", ord, ti)
			}
		}
		if n.total[g] != running {
			return snapshot.Corruptf("index node %d: total[%d] = %d, want %d", ord, g, n.total[g], running)
		}
		if maxW[g] != mx {
			return snapshot.Corruptf("index node %d: maxW[%d] = %d, want %d", ord, g, maxW[g], mx)
		}
	}
	// tupleOrd must invert the bucket layout: the slot it names holds pos.
	groupOf := n.grouping.GroupOf
	for pos := 0; pos < nrows; pos++ {
		g := groupOf[pos]
		ord2 := n.tupleOrd[pos]
		if ord2 < 0 || int(ord2) >= n.bucketLen(g) {
			return snapshot.Corruptf("index node %d: tuple ordinal %d outside bucket %d", ord, ord2, g)
		}
		if n.tupleIdx[n.bucketOff[g]+ord2] != int32(pos) {
			return snapshot.Corruptf("index node %d: tuple ordinal of %d does not invert the bucket layout", ord, pos)
		}
	}
	// Weights must equal the product of resolved child-bucket totals.
	for slot := 0; slot < nrows; slot++ {
		pos := n.tupleIdx[slot]
		prod := int64(1)
		for ci, c := range n.children {
			cg := n.childGroup[ci][pos]
			if cg < 0 {
				prod = 0
				break
			}
			ct := c.total[cg]
			if ct < 0 {
				return snapshot.Corruptf("index node %d: child %d bucket %d has negative total", ord, ci, cg)
			}
			if ct == 0 {
				prod = 0
				break
			}
			if prod > (1<<62)/ct {
				return snapshot.Corruptf("index node %d: weight product overflow at slot %d", ord, slot)
			}
			prod *= ct
		}
		if weight[slot] != prod {
			return snapshot.Corruptf("index node %d: weight[%d] = %d, want child product %d", ord, slot, weight[slot], prod)
		}
	}
	return nil
}
