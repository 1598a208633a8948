// Snapshot encoding of the weighted join-tree index. The build-time shape —
// flat contiguous arrays addressed by integer bucket IDs, a slot being a row
// of the node's bucket-ordered relation — serializes as-is: every numeric
// section the index keeps (columns, group IDs, bucket offset tables, the
// inner nodes' prefix sums and totals, child-ID arrays) restores as a
// zero-copy view of the snapshot mapping, so reopening an index is
// O(validate) instead of O(preprocess). Derived wiring (schemaHeadPos,
// output assignment, the parent↔child shared-attribute positions) is
// recomputed through the same helpers the builder uses.
//
// Format version 1 stored each relation in its reduced (insertion) order,
// with a slot → row table (tupleIdx), a row → ordinal table (tupleOrd),
// per-slot weights, per-bucket maximum weights and the leaves' prefix sums
// and totals. Its reader validates all of them as before and then gathers
// the node into slot order with the builder's own routine
// (Grouping.SortRows): the columns and child-ID arrays are copied out of
// the mapping, and the rest is dropped.
package access

import (
	"repro/internal/relation"
	"repro/internal/snapshot"
)

// Marshal appends the index to a section writer: head, then every node in
// tree order (parent link, bucket-ordered relation, group IDs, bucket
// offsets, the inner nodes' start indexes and totals, resolved child-bucket
// arrays).
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
		s.I64s(n.start)
		s.I64s(n.total)
		s.U64(uint64(len(n.childGroup)))
		for _, cg := range n.childGroup {
			s.I32s(cg)
		}
	}
}

// restoredNode is one node as read back, before tree wiring.
type restoredNode struct {
	n         *node
	parentOrd int64
	childN    int
	childCG   [][]int32
	// Format version 1 only: validated, then dropped.
	tupleIdx, tupleOrd []int32
	weight, maxW       []int64
}

// UnmarshalIndex restores an index from a section reader, of either format
// version. All structural invariants that memory safety of the probe paths
// depends on — array lengths, monotone bucket offsets, group IDs that match
// them, in-range child bucket IDs, tree shape, Algorithm 2's prefix sums —
// are validated; a violation is a typed snapshot.ErrCorrupt, never a panic.
// No tuple is hashed: the node relations' membership indexes are built by
// the first InvertedAccess.
func UnmarshalIndex(r *snapshot.Reader) (*Index, error) {
	v1 := r.Version() == 1
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
		ng := int(r.U64())
		groupOf := r.U32s()
		n.bucketOff = r.I32s()
		if v1 {
			rn.tupleIdx = r.I32s()
			rn.tupleOrd = r.I32s()
			rn.weight = r.I64s()
		}
		n.start = r.I64s()
		n.total = r.I64s()
		if v1 {
			rn.maxW = r.I64s()
		}
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
		if ng < 0 || ng > nrows {
			return nil, snapshot.Corruptf("index node %d: %d groups over %d tuples", i, ng, nrows)
		}
		if len(groupOf) != nrows || v1 && (len(rn.tupleIdx) != nrows || len(rn.tupleOrd) != nrows ||
			len(rn.weight) != nrows || len(n.start) != nrows) {
			return nil, snapshot.Corruptf("index node %d: per-tuple array lengths do not match %d tuples", i, nrows)
		}
		if len(n.bucketOff) != ng+1 || v1 && (len(n.total) != ng || len(rn.maxW) != ng) {
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
		if n.grouping, err = relation.RestoreGrouping(groupOf, ng, 0); err != nil {
			return nil, err
		}
		if !v1 {
			// Slot order: bucket g is exactly the run of rows of group g.
			for g := 0; g < ng; g++ {
				for s := n.bucketOff[g]; s < n.bucketOff[g+1]; s++ {
					if groupOf[s] != uint32(g) {
						return nil, snapshot.Corruptf("index node %d: slot %d has group %d, its bucket is %d", i, s, groupOf[s], g)
					}
				}
			}
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

	// Per-edge validation now that the children are known.
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
		// Version 2 stores aggregates at inner nodes only.
		wantStart, wantTotal := nrows, n.grouping.NumGroups()
		if n.leaf() {
			wantStart, wantTotal = 0, 0
		}
		if !v1 && (len(n.start) != wantStart || len(n.total) != wantTotal) {
			return nil, snapshot.Corruptf("index node %d: %d start indexes and %d totals, want %d and %d", i, len(n.start), len(n.total), wantStart, wantTotal)
		}
	}

	// Semantic validation: re-run Algorithm 2's aggregation as a check.
	// After it, every probe path is panic-free on this structure — the
	// binary search always lands inside its bucket, the mixed-radix
	// decomposition never divides by zero, and inverted access never
	// indexes out of range — so even a hostile file that defeated the
	// checksums cannot crash a probe, only answer wrong. A version-1 node
	// is gathered into slot order first; its per-slot sections stay where
	// they are, and a leaf's aggregates, once validated, are what leaf
	// arithmetic computes and are dropped.
	for i, n := range idx.nodes {
		rn := &nodes[i]
		if v1 {
			if err := n.gatherV1(i, rn.tupleIdx, rn.tupleOrd); err != nil {
				return nil, err
			}
		}
		if err := n.validateAggregates(i, rn.weight, rn.maxW); err != nil {
			return nil, err
		}
		if n.leaf() {
			n.start, n.total = nil, nil
		}
	}

	if err := idx.wireOutputs(); err != nil {
		return nil, snapshot.Corruptf("%v", err)
	}
	for _, n := range idx.nodes {
		n.wireOutVals()
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
// the slots' weights, ending at the bucket's total, and every slot's weight
// is the product of its resolved child-bucket totals (zero exactly when a
// child bucket is missing). A version-2 leaf stores no aggregate and has
// nothing to check. A version-1 node passes its stored per-slot weights and
// per-bucket maxima, which must match. Runs after children are wired, on a
// node in slot order. O(n) per node.
func (n *node) validateAggregates(ord int, weight, maxW []int64) error {
	if n.start == nil && n.total == nil {
		return nil
	}
	for g := 0; g < n.grouping.NumGroups(); g++ {
		var running, mx int64
		for slot := n.bucketOff[g]; slot < n.bucketOff[g+1]; slot++ {
			w := int64(1)
			for ci, c := range n.children {
				cg := n.childGroup[ci][slot]
				if cg < 0 {
					w = 0
					break
				}
				ct := c.bucketTotal(uint32(cg))
				if ct < 0 {
					return snapshot.Corruptf("index node %d: child %d bucket %d has negative total", ord, ci, cg)
				}
				if ct == 0 {
					w = 0
					break
				}
				if w > (1<<62)/ct {
					return snapshot.Corruptf("index node %d: weight product overflow at slot %d", ord, slot)
				}
				w *= ct
			}
			if weight != nil && weight[slot] != w {
				return snapshot.Corruptf("index node %d: weight[%d] = %d, want child product %d", ord, slot, weight[slot], w)
			}
			if n.start[slot] != running {
				return snapshot.Corruptf("index node %d: start[%d] = %d, want prefix sum %d", ord, slot, n.start[slot], running)
			}
			running += w
			if running < 0 {
				return snapshot.Corruptf("index node %d: weight overflow in bucket %d", ord, g)
			}
			mx = max(mx, w)
		}
		if n.total[g] != running {
			return snapshot.Corruptf("index node %d: total[%d] = %d, want %d", ord, g, n.total[g], running)
		}
		if maxW != nil && maxW[g] != mx {
			return snapshot.Corruptf("index node %d: maxW[%d] = %d, want %d", ord, g, maxW[g], mx)
		}
	}
	return nil
}

// gatherV1 moves a version-1 node into slot order with the builder's
// gather and checks the file's slot → row and row → ordinal tables against
// it: the layout must be the one the gather produces — every builder wrote
// its buckets by a stable counting sort — and each ordinal the row's place
// in its bucket.
func (n *node) gatherV1(ord int, tupleIdx, tupleOrd []int32) error {
	fileOff := n.bucketOff
	slotOf := n.gather()
	for g, o := range n.bucketOff {
		if o != fileOff[g] {
			return snapshot.Corruptf("index node %d: bucket %d starts at %d, its group at %d", ord, g, fileOff[g], o)
		}
	}
	for pos := range tupleIdx {
		slot := int32(pos)
		if slotOf != nil {
			slot = slotOf[pos]
		}
		if tupleIdx[slot] != int32(pos) {
			return snapshot.Corruptf("index node %d: bucket layout is not in tuple order at slot %d", ord, slot)
		}
		if g := n.grouping.GroupOf[slot]; tupleOrd[pos] != slot-n.bucketOff[g] {
			return snapshot.Corruptf("index node %d: tuple ordinal of %d does not invert the bucket layout", ord, pos)
		}
	}
	return nil
}
