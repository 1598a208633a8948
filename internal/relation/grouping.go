package relation

// Grouping is the result of Relation.GroupBy: a dense uint32 group ID per
// tuple, where tuples share a group iff they agree on the key positions.
// Group IDs are assigned in order of first appearance, so they inherit the
// relation's insertion-order determinism. A Grouping is immutable once built
// (SortRows and ReleaseKeys aside) and safe for concurrent readers.
//
// The access index addresses its buckets by these IDs: what used to be a
// map[string]*bucket probe per join-tree edge becomes a plain array index.
type Grouping struct {
	width     int
	numGroups int

	// GroupOf[i] is the group ID of tuple i.
	GroupOf []uint32

	// Key lookup for LookupRows, until ReleaseKeys: first[g] is group g's
	// first row. A dense single key column (denseGroups) maps value v to
	// group ids[v−lo]−1 (0: no group); any other key goes through a flatTable
	// whose ids are the groups, group g's key being row first[g] of keyCols,
	// the relation's columns at positions.
	ids       []int32
	lo        Value
	table     *flatTable
	keyCols   [][]Value
	first     []int32
	positions []int
}

// NumGroups returns the number of distinct groups.
func (g *Grouping) NumGroups() int { return g.numGroups }

// GroupBy scans the relation once and assigns a dense group ID to every
// tuple. Zero positions puts every tuple in group 0. A single key column
// whose values span at most denseSpanFactor × its row count is grouped by
// direct addressing: an []int32 indexed by value − min holds each value's
// group, so a row costs one array read and no hash (at most 16 bytes a row,
// released with the keys). Every other key goes through a flatTable that
// starts small and doubles, since the group count — usually far below the
// row count — is unknown up front; the table lives only until ReleaseKeys,
// so its slack is build-time memory. Both assign ids in order of first
// appearance, so the path taken never shows in the grouping.
func (r *Relation) GroupBy(positions []int) *Grouping {
	g := &Grouping{width: len(positions), GroupOf: make([]uint32, r.n), positions: positions}
	if len(positions) == 0 {
		if r.n > 0 {
			g.numGroups = 1
		}
		return g
	}
	cols := r.keyCols(positions)
	if len(cols) == 1 {
		col := cols[0][:r.n]
		if lo, span, ok := denseSpan(col, 0); ok {
			g.lo = lo
			g.ids, g.first = denseGroups(col, lo, span, g.GroupOf)
			g.numGroups = len(g.first)
			return g
		}
	}
	g.keyCols = cols
	g.table, g.first = groupRows(cols, r.n, g.GroupOf, 0)
	g.numGroups = len(g.first)
	return g
}

// denseGroups is groupRows for one column of span values from lo: ids[v−lo]
// is v's group + 1, 0 while v has none, so the fresh array needs no fill.
// Groups are numbered in order of first appearance, so their first rows are
// where groupOf first reaches 0, 1, 2, …: a second pass that stops at the
// last group finds them, and first is allocated at its exact size.
func denseGroups(col []Value, lo Value, span int, groupOf []uint32) (ids, first []int32) {
	ids = make([]int32, span)
	n := int32(0)
	for i, v := range col {
		id := ids[v-lo]
		if id == 0 {
			n++
			id = n
			ids[v-lo] = id
		}
		groupOf[i] = uint32(id - 1)
	}
	first = make([]int32, n)
	next := uint32(0)
	for i, k := range groupOf {
		if k == next {
			first[k] = int32(i)
			if next++; next == uint32(n) {
				break
			}
		}
	}
	return ids, first
}

// SortRows stably gathers r — the relation g was built on — into group
// order: the rows of group 0 first, then those of group 1, and so on, each
// group's rows in their order in r. It returns the reordered relation, the
// group offsets (group k holds rows off[k] … off[k+1]−1 of sorted, len
// NumGroups+1) and slotOf, the new position of each row of r, for per-row
// arrays the caller built on r's order; slotOf is nil when r was in group
// order already, and sorted is then r itself. Otherwise sorted is a new
// relation of fresh columns, each exactly Len long, and, when r's
// membership index is present, a copy of it whose row ids are remapped in
// one pass instead of being rehashed. r is not modified — its columns may
// alias a read-only mapping, or be shared with another build — and
// neither is the GroupOf g had: g gets a new one.
//
// Afterwards g describes sorted: GroupOf is non-decreasing, and the key
// lookup reads sorted's columns with row off[k] as group k's key.
func (g *Grouping) SortRows(r *Relation) (sorted *Relation, off, slotOf []int32) {
	ng := g.numGroups
	off = make([]int32, ng+1)
	inOrder := true
	for i, k := range g.GroupOf {
		off[k+1]++
		inOrder = inOrder && (i == 0 || k >= g.GroupOf[i-1])
	}
	for k := 1; k <= ng; k++ {
		off[k] += off[k-1]
	}
	sorted = r
	if !inOrder {
		slotOf = make([]int32, r.n)
		fill := append([]int32(nil), off[:ng]...)
		for i, k := range g.GroupOf {
			slotOf[i] = fill[k]
			fill[k]++
		}
		sorted = r.permute(slotOf)
		g.GroupOf = make([]uint32, r.n)
		for k := 1; k < ng; k++ {
			for s := off[k]; s < off[k+1]; s++ {
				g.GroupOf[s] = uint32(k)
			}
		}
	}
	// A dense lookup maps values, not rows: it has nothing to remap.
	if g.first != nil {
		g.first = off[:ng]
	}
	if g.table != nil {
		g.keyCols = sorted.keyCols(g.positions)
	}
	return sorted, off, slotOf
}

// permute returns a copy of r whose row slotOf[i] is r's row i (slotOf a
// permutation of 0 … Len−1); see SortRows.
func (r *Relation) permute(slotOf []int32) *Relation {
	out := &Relation{name: r.name, schema: r.schema, cols: make([][]Value, len(r.cols)), n: r.n}
	for a, col := range r.cols {
		nc := make([]Value, r.n)
		for i, v := range col {
			nc[slotOf[i]] = v
		}
		out.cols[a] = nc
	}
	if src := r.index; src != nil {
		t := &flatTable{slots: make([]uint64, len(src.slots)), shift: src.shift, n: src.n, seed: src.seed}
		for s, e := range src.slots {
			if e != 0 {
				t.slots[s] = e&hashMask | uint64(slotOf[uint32(e)-1]+1)
			}
		}
		out.index = t
	}
	return out
}

// LookupRows resolves every row of r to a group: out[i] is the group whose
// key equals the values at positions proj of row i, or −1 when no group has
// that key. r need not be the relation the grouping was built on: this is
// how a join-tree parent resolves its tuples to child bucket IDs: through
// GroupBy's direct-addressed array on a dense key, a block of rows at a time
// (flatTable.lookupBlock) otherwise. len(proj) must equal the grouping's
// width. After ReleaseKeys, and on a restored grouping, every row misses
// when the width is ≥ 1.
func (g *Grouping) LookupRows(r *Relation, proj []int) []int32 {
	out := make([]int32, r.n)
	switch {
	case g.width == 0 && g.numGroups > 0:
		// Every row's key is the empty one, group 0: out is zero already.
	case g.ids != nil:
		// One unsigned compare keeps every value outside the span, however
		// far, at −1 (as keySet.has does).
		ids := g.ids
		for i, v := range r.cols[proj[0]][:r.n] {
			out[i] = -1
			if d := uint64(v - g.lo); d < uint64(len(ids)) {
				out[i] = ids[d] - 1
			}
		}
	case g.width == 0 || g.table == nil:
		for i := range out {
			out[i] = -1
		}
	default:
		kcols := r.keyCols(proj)
		for lo := 0; lo < r.n; lo += blockRows {
			g.table.lookupBlock(out[lo:min(lo+blockRows, r.n)], kcols, lo, g.keyCols, g.first)
		}
	}
	return out
}

// ReleaseKeys drops the key lookup, keeping GroupOf. The access index calls
// it once every node is built: its probes read only the group ids, so the
// lookup is build-time memory.
func (g *Grouping) ReleaseKeys() {
	g.ids, g.table, g.keyCols, g.first, g.positions = nil, nil, nil, nil, nil
}
