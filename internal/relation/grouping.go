package relation

// Grouping is the result of Relation.GroupBy: a dense uint32 group ID per
// tuple, where tuples share a group iff they agree on the key positions.
// Group IDs are assigned in order of first appearance, so they inherit the
// relation's insertion-order determinism. A Grouping is immutable once built
// and safe for concurrent readers.
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

	// Key lookup: exactly one of packed/wide is non-nil for width ≥ 1.
	// packed holds 64-bit packed keys (width ≤ 2 with all values packable);
	// wide holds canonical string keys.
	packed map[uint64]uint32
	wide   map[string]uint32
}

// NumGroups returns the number of distinct groups.
func (g *Grouping) NumGroups() int { return len(g.First) }

// Width returns the number of key positions the grouping was built on.
func (g *Grouping) Width() int { return g.width }

// GroupBy scans the relation once and assigns a dense group ID to every
// tuple. Keys of ≤ 2 attributes use a packed 64-bit fast path; wider keys —
// or a key containing a value outside [0, 2^32) at width 2 — fall back to the
// canonical string encoding (the whole grouping migrates on first overflow,
// so lookups stay consistent). Zero positions puts every tuple in group 0.
// The key map is left to grow: the group count is unknown up front and
// usually far below the row count, where pre-sizing to Len costs more than
// the rehashing it saves and — groupings are retained by the access index —
// keeps the slack for the index's lifetime.
func (r *Relation) GroupBy(positions []int) *Grouping {
	g := &Grouping{width: len(positions), GroupOf: make([]uint32, r.n)}
	if len(positions) == 0 {
		if r.n > 0 {
			g.First = []int32{0}
		}
		return g
	}
	if len(positions) <= 2 {
		g.packed = make(map[uint64]uint32)
		for i := 0; i < r.n; i++ {
			k, ok := r.packAt(i, positions)
			if !ok {
				g.migrateWide(r, positions)
				g.scanWide(r, positions, i)
				return g
			}
			id, seen := g.packed[k]
			if !seen {
				id = uint32(len(g.First))
				g.packed[k] = id
				g.First = append(g.First, int32(i))
			}
			g.GroupOf[i] = id
		}
		return g
	}
	g.wide = make(map[string]uint32)
	g.scanWide(r, positions, 0)
	return g
}

// migrateWide converts a packed grouping to the string-keyed form by
// re-encoding one representative row per existing group.
func (g *Grouping) migrateWide(r *Relation, positions []int) {
	g.wide = make(map[string]uint32, len(g.First))
	for id, first := range g.First {
		g.wide[r.keyAt(int(first), positions)] = uint32(id)
	}
	g.packed = nil
}

// scanWide continues the grouping scan from row `from` using string keys.
func (g *Grouping) scanWide(r *Relation, positions []int, from int) {
	var buf [KeyBufCap]byte
	for i := from; i < r.n; i++ {
		b := KeyScratch(&buf, len(positions))
		for _, p := range positions {
			b = appendValue(b, r.cols[p][i])
		}
		id, seen := g.wide[string(b)]
		if !seen {
			id = uint32(len(g.First))
			g.wide[string(b)] = id
			g.First = append(g.First, int32(i))
		}
		g.GroupOf[i] = id
	}
}

// LookupAt returns the group whose key equals the values at positions proj
// of row i of r — which need not be the relation the grouping was built on:
// this is how a join-tree parent resolves its tuples to child bucket IDs.
// len(proj) must equal the grouping's width. Allocation-free for packed
// groupings and for wide keys of ≤ KeyBufCap/8 attributes.
func (g *Grouping) LookupAt(r *Relation, i int, proj []int) (uint32, bool) {
	if g.width == 0 {
		return 0, len(g.First) > 0
	}
	if g.packed != nil {
		var k uint64
		switch len(proj) {
		case 1:
			k = uint64(r.cols[proj[0]][i])
		default:
			a, b := r.cols[proj[0]][i], r.cols[proj[1]][i]
			if !packable32(a) || !packable32(b) {
				return 0, false
			}
			k = packPair(a, b)
		}
		id, ok := g.packed[k]
		return id, ok
	}
	var buf [KeyBufCap]byte
	b := KeyScratch(&buf, len(proj))
	for _, p := range proj {
		b = appendValue(b, r.cols[p][i])
	}
	id, ok := g.wide[string(b)]
	return id, ok
}

// DistinctCount returns the number of distinct values in column a — what
// GroupBy([]int{a}).NumGroups() reports, without the per-tuple group IDs.
// Runs of equal values (a clustered key column) cost one map operation.
func (r *Relation) DistinctCount(a int) int {
	seen := make(map[Value]struct{})
	for i, v := range r.cols[a] {
		if i > 0 && v == r.cols[a][i-1] {
			continue
		}
		seen[v] = struct{}{}
	}
	return len(seen)
}
