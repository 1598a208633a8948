package relation

// Grouping is the result of Relation.GroupBy: a dense uint32 group ID per
// tuple, where tuples share a group iff they agree on the key positions.
// Group IDs are assigned in order of first appearance, so they inherit the
// relation's insertion-order determinism. A Grouping is immutable once built
// (ReleaseKeys aside) and safe for concurrent readers.
//
// The access index addresses its buckets by these IDs: what used to be a
// map[string]*bucket probe per join-tree edge becomes a plain array index.
type Grouping struct {
	width int

	// GroupOf[i] is the group ID of tuple i.
	GroupOf []uint32
	// First[g] is the position of the first tuple of group g (a
	// representative row for re-deriving the group's key values).
	First []int32

	// Key lookup for LookupRows, until ReleaseKeys: a flatTable whose ids are
	// the groups, group g's key being row First[g] of keyCols.
	table   *flatTable
	keyCols [][]Value
}

// NumGroups returns the number of distinct groups.
func (g *Grouping) NumGroups() int { return len(g.First) }

// Width returns the number of key positions the grouping was built on.
func (g *Grouping) Width() int { return g.width }

// GroupBy scans the relation once and assigns a dense group ID to every
// tuple. Zero positions puts every tuple in group 0. Keys go through a
// flatTable that starts small and doubles, since the group count — usually
// far below the row count — is unknown up front; the table lives only until
// ReleaseKeys, so its slack is build-time memory.
func (r *Relation) GroupBy(positions []int) *Grouping {
	g := &Grouping{width: len(positions), GroupOf: make([]uint32, r.n)}
	if len(positions) == 0 {
		if r.n > 0 {
			g.First = []int32{0}
		}
		return g
	}
	g.keyCols = r.keyCols(positions)
	g.table, g.First = groupRows(g.keyCols, r.n, g.GroupOf)
	return g
}

// LookupRows resolves every row of r to a group: out[i] is the group whose
// key equals the values at positions proj of row i, or −1 when no group has
// that key. r need not be the relation the grouping was built on: this is
// how a join-tree parent resolves its tuples to child bucket IDs, a block of
// rows at a time (flatTable.lookupBlock). len(proj) must equal the
// grouping's width. After ReleaseKeys, and on a restored grouping, every row
// misses when the width is ≥ 1.
func (g *Grouping) LookupRows(r *Relation, proj []int) []int32 {
	out := make([]int32, r.n)
	switch {
	case g.width == 0 && len(g.First) > 0:
		// Every row's key is the empty one, group 0: out is zero already.
	case g.width == 0 || g.table == nil:
		for i := range out {
			out[i] = -1
		}
	default:
		kcols := r.keyCols(proj)
		for lo := 0; lo < r.n; lo += blockRows {
			g.table.lookupBlock(out[lo:min(lo+blockRows, r.n)], kcols, lo, g.keyCols, g.First)
		}
	}
	return out
}

// ReleaseKeys drops the key lookup table, keeping GroupOf and First. The
// access index calls it once every node is built: its probes read only the
// group ids, so the table is build-time memory.
func (g *Grouping) ReleaseKeys() {
	g.table, g.keyCols = nil, nil
}
