// Package dynaccess is a dynamic variant of the paper's random-access index
// (extension; the paper's Section 7 and its citation [6] — Berkholz,
// Keppeler, Schweikardt, "Answering UCQs under updates" — motivate
// maintaining such structures under database changes).
//
// It supports full (projection-free) free-connex CQs and maintains, under
// tuple insertions and deletions on the base relations:
//
//   - Count() in O(1),
//   - Access(j) in O(log n) per tree node (Fenwick prefix search replaces
//     Algorithm 2's static prefix sums),
//   - InvertedAccess in O(log n),
//   - uniform sampling via Access(Uniform(Count())).
//
// Update cost is O(a · log n) where a is the number of ancestor tuples whose
// weights change. For hierarchical joins a is small; in the worst case a is
// linear — consistent with the known lower bounds: sublinear update time for
// all free-connex CQs would contradict the OMv-based hardness results of
// [6], so a structure like this cannot do better in general.
//
// # Representation
//
// Everything is a flat array addressed by a dense int32. A base relation
// keeps its rows once, row-major in an append-only value array, with one
// identity table (relation.KeyTable, the flat hash table of package relation
// over key columns of its own) from raw tuple to row position;
// deletions are tombstones, so positions are stable and a re-insert revives
// in place. A join-tree node holds no values of its own — an atom's
// instantiation is injective on the rows it accepts, so a node row *is* its
// base position — only, per row, the id of its bucket, its ordinal inside
// it, and the id of the matching bucket of every child. Buckets live in a
// per-node slice; the id is allotted by the edge's key table the first time
// either side of the edge mentions the key, so a parent row always has a
// child bucket to point at (an empty one until the child's first row
// arrives) and probes never encode a key. Each bucket carries its member
// rows, their weights in a Fenwick tree, and the parent rows joining it (the
// reverse list that drives update cascades).
package dynaccess

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/access"
	"repro/internal/fenwick"
	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/relation"
)

// ErrNotFull is returned when the query has existential variables; the
// dynamic index supports full acyclic CQs (apply it to the output of the
// static Proposition 4.2 reduction if projections are needed and updates
// only touch the remaining relations).
var ErrNotFull = errors.New("dynaccess: query must be a full (projection-free) CQ")

// ErrCyclic is returned for cyclic queries.
var ErrCyclic = errors.New("dynaccess: query is cyclic")

// Index is the dynamic weighted join-tree index.
//
// Unlike the static access.Index, this structure mutates under Insert and
// Delete, so all public methods are internally synchronized with a
// readers–writer lock: any number of concurrent Count / Access /
// InvertedAccess / Contains / Sample / SampleN readers interleave freely,
// while Insert and Delete exclude everything else. Each probe — and each
// SampleN or AccessBatch as a whole — observes an atomic snapshot of the
// index (no torn reads mid-cascade).
type Index struct {
	mu    sync.RWMutex
	q     *query.CQ
	head  []string
	root  *node
	bases map[string]*baseSet // base relation name → its logical contents

	// cascade's scratch, reused across updates (the write lock is held):
	// the bucket ids whose totals changed at the current and the next level,
	// and the stamp that keeps a bucket from entering a level twice.
	frontier [2][]int32
	stamp    uint64
}

// baseSet is the logical contents of one base relation feeding the index:
// raw rows in arrival order, with tombstones that revive in place.
// Tombstones are kept (and persisted — see Tables) deliberately: a restored
// or rebuilt index must reproduce the live one's bucket layouts so that a
// later re-insert revives in the same position and enumeration order stays
// byte-identical to a process that never restarted.
type baseSet struct {
	arity  int
	allPos []int            // 0..arity-1: the identity key is the whole row
	vals   []relation.Value // row-major, append-only
	alive  []bool
	ids    *relation.KeyTable // raw tuple → row position; made by load
	nodes  []*node            // the atoms over this relation
}

func (b *baseSet) row(pos int32) []relation.Value {
	return b.vals[int(pos)*b.arity : (int(pos)+1)*b.arity]
}

// BaseTable is the exported logical contents of one base relation: every
// tuple ever inserted in arrival order, row-major in Values, with Dead
// listing the positions currently tombstoned. This is the index's
// persistable form — see NewFromTables for the round trip.
type BaseTable struct {
	Name   string
	Arity  int
	Rows   int
	Values []relation.Value // Rows × Arity
	Dead   []int64          // sorted, strictly increasing tombstone positions
}

// constCheck is a precompiled constant-selection condition of an atom.
type constCheck struct {
	pos int
	val relation.Value
}

// node is one atom of the join tree. Every position below is a position in
// the base relation's row; the per-row arrays are indexed by base position.
type node struct {
	base *baseSet

	// Precompiled instantiation conditions: a row is the node's iff it
	// passes them.
	constChecks []constCheck
	eqChecks    [][2]int // raw[a] must equal raw[b] (repeated variables)

	parent      *node
	children    []*node
	keys        *relation.KeyTable // this edge's key → bucket id; both sides intern
	keyPos      []int              // the bucket key: attributes shared with the parent
	childKeyPos [][]int            // the same key read off this node's rows, per child

	outCols []int // head positions this node writes ...
	outSrc  []int // ... and the row position each comes from
	rawSrc  []int // row position → head position it equals, -1 for a constant

	buckets   []bucket  // one per key of keys; never removed, so ids are stable
	rowBucket []int32   // -1 for a row the atom's conditions reject
	rowOrd    []int32   // the row's ordinal in its bucket
	childBkt  [][]int32 // [child][row] → bucket id in that child
}

type bucket struct {
	rows    []int32 // member rows in arrival order
	w       fenwick.Tree
	parents []int32 // parent rows whose key is this bucket's
	stamp   uint64
}

// build assembles the index's static structure — nodes, join tree wiring,
// output assignment, empty base sets — without loading any data. arityOf
// reports the arity of each referenced base relation (from the database on
// a fresh build, from exported tables on a rebuild) and errors on unknown
// names.
func build(q *query.CQ, arityOf func(name string) (int, error)) (*Index, error) {
	if !q.IsFull() {
		return nil, fmt.Errorf("%w: %s", ErrNotFull, q.Name)
	}
	tree, err := hypergraph.FromCQ(q).JoinTree()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCyclic, q.Name)
	}

	idx := &Index{q: q, head: append([]string(nil), q.Head...), bases: make(map[string]*baseSet)}
	headPos := make(map[string]int, len(q.Head))
	for i, h := range q.Head {
		headPos[h] = i
	}

	nodes := make([]*node, len(q.Body))
	schemas := make([]relation.Schema, len(q.Body))
	varPos := make([][]int, len(q.Body)) // schema variable → row position
	assigned := make([]bool, len(q.Head))
	for i, a := range q.Body {
		arity, err := arityOf(a.Relation)
		if err != nil {
			return nil, err
		}
		if arity != len(a.Terms) {
			return nil, fmt.Errorf("dynaccess: atom %s arity mismatch with relation (%d vs %d)",
				a, len(a.Terms), arity)
		}
		bs := idx.bases[a.Relation]
		if bs == nil {
			bs = &baseSet{arity: arity, allPos: make([]int, arity)}
			for p := range bs.allPos {
				bs.allPos[p] = p
			}
			idx.bases[a.Relation] = bs
		}
		if schemas[i], err = relation.NewSchema(a.Vars()...); err != nil {
			return nil, err
		}
		n := &node{base: bs, rawSrc: make([]int, arity)}
		// Compile the atom's selection conditions once.
		firstPos := make(map[string]int)
		for pos, t := range a.Terms {
			if !t.IsVar() {
				n.constChecks = append(n.constChecks, constCheck{pos: pos, val: t.Const})
				n.rawSrc[pos] = -1
				continue
			}
			hp, ok := headPos[t.Var]
			if !ok {
				return nil, fmt.Errorf("%w: variable %s", ErrNotFull, t.Var)
			}
			n.rawSrc[pos] = hp
			if fp, seen := firstPos[t.Var]; seen {
				n.eqChecks = append(n.eqChecks, [2]int{pos, fp})
				continue
			}
			firstPos[t.Var] = pos
			varPos[i] = append(varPos[i], pos)
			// Output assignment: the first node containing each head var.
			if !assigned[hp] {
				assigned[hp] = true
				n.outCols = append(n.outCols, hp)
				n.outSrc = append(n.outSrc, pos)
			}
		}
		nodes[i] = n
		bs.nodes = append(bs.nodes, n)
	}
	for i, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("dynaccess: head variable %q not covered", q.Head[i])
		}
	}

	// Wire the tree (tree.Nodes is in atom order; EdgeID = atom index).
	rowPositions := func(i int, attrs []string) []int {
		ps, _ := schemas[i].Positions(attrs)
		for k, p := range ps {
			ps[k] = varPos[i][p]
		}
		return ps
	}
	for i, tn := range tree.Nodes {
		n := nodes[i]
		if tn.Parent == nil {
			// The root's one bucket (the empty key) exists from the start.
			idx.root = n
			n.keys = relation.NewKeyTable(0, 0)
			n.bucketFor(nil, nil)
			continue
		}
		pi := tn.Parent.EdgeID
		p := nodes[pi]
		shared := schemas[i].Intersect(schemas[pi])
		n.keys = relation.NewKeyTable(len(shared), 0)
		n.keyPos = rowPositions(i, shared)
		n.parent = p
		p.children = append(p.children, n)
		p.childKeyPos = append(p.childKeyPos, rowPositions(pi, shared))
		p.childBkt = append(p.childBkt, nil)
	}
	return idx, nil
}

// New builds the dynamic index for a full acyclic CQ over the current
// contents of db, in linear time.
func New(db *relation.Database, q *query.CQ) (*Index, error) {
	idx, err := build(q, func(name string) (int, error) {
		base, err := db.Relation(name)
		if err != nil {
			return 0, err
		}
		return base.Arity(), nil
	})
	if err != nil {
		return nil, err
	}
	tables := make([]BaseTable, 0, len(idx.bases))
	for name, bs := range idx.bases {
		base, _ := db.Relation(name) // build resolved it
		tb := BaseTable{Name: name, Arity: bs.arity, Rows: base.Len(), Values: make([]relation.Value, base.Len()*bs.arity)}
		for a := 0; a < bs.arity; a++ {
			for i, v := range base.Col(a) {
				tb.Values[i*bs.arity+a] = v
			}
		}
		tables = append(tables, tb)
	}
	return idx, idx.load(tables)
}

// NewFromTables rebuilds the index for q from previously exported base
// contents (Tables, or a snapshot's dynamic base section). The result is
// structurally identical to the index that exported the tables — same
// bucket layouts, same enumeration order, and the same revive positions for
// future re-inserts — because a node's layout depends only on its own
// relation's arrival order, which the tables preserve, tombstones included.
func NewFromTables(q *query.CQ, tables []BaseTable) (*Index, error) {
	arities := make(map[string]int, len(tables))
	for _, tb := range tables {
		if _, dup := arities[tb.Name]; dup {
			return nil, fmt.Errorf("dynaccess: two tables for relation %q", tb.Name)
		}
		arities[tb.Name] = tb.Arity
	}
	idx, err := build(q, func(name string) (int, error) {
		ar, ok := arities[name]
		if !ok {
			return 0, fmt.Errorf("dynaccess: no table for relation %q", name)
		}
		return ar, nil
	})
	if err != nil {
		return nil, err
	}
	return idx, idx.load(tables)
}

// load populates a freshly built index from base contents, bottom-up and in
// linear time. It is the only way existing rows enter an index; tables come
// from outside the process (a snapshot), so everything about them is checked.
func (idx *Index) load(tables []BaseTable) error {
	for _, tb := range tables {
		bs, ok := idx.bases[tb.Name]
		if !ok {
			return fmt.Errorf("dynaccess: table %q is not referenced by query %s", tb.Name, idx.q.Name)
		}
		if tb.Rows < 0 || tb.Rows > relation.MaxTuples || len(tb.Values) != tb.Rows*bs.arity {
			return fmt.Errorf("dynaccess: table %q holds %d values for %d tuples of arity %d", tb.Name, len(tb.Values), tb.Rows, bs.arity)
		}
		// Copied: the live array grows by append, the table may view a
		// snapshot mapping or another index's storage.
		bs.vals = append([]relation.Value(nil), tb.Values...)
		bs.alive = make([]bool, tb.Rows)
		bs.ids = relation.NewKeyTable(bs.arity, tb.Rows)
		ids := make([]int32, tb.Rows)
		bs.ids.InternRows(ids, bs.vals, bs.arity, bs.allPos)
		for pos, id := range ids {
			bs.alive[pos] = true
			if id != int32(pos) { // the first repeat: every row before it was new
				return fmt.Errorf("dynaccess: table %q holds tuple %v twice (second at position %d)", tb.Name, bs.row(int32(pos)), pos)
			}
		}
		for _, d := range tb.Dead {
			if d < 0 || d >= int64(tb.Rows) {
				return fmt.Errorf("dynaccess: table %q dead position %d of %d", tb.Name, d, tb.Rows)
			}
			bs.alive[d] = false
		}
	}
	idx.root.load()
	return nil
}

// load fills the node's per-row arrays and buckets from its base set, after
// its children's: member lists, weights and Fenwick arrays are carved from
// one arena each, in bucket order. A tombstoned row keeps its position and
// its ordinal, at weight 0.
func (n *node) load() {
	for _, c := range n.children {
		c.load()
	}
	rows := len(n.base.alive)
	n.rowBucket = make([]int32, rows)
	n.rowOrd = make([]int32, rows)
	for r := range n.rowBucket {
		if !n.matches(n.base.row(int32(r))) {
			n.rowBucket[r] = -1
		}
	}
	n.bucketsFor(n.base, n.rowBucket, n.keyPos)
	sizes := make([]int32, len(n.buckets)) // members per bucket
	for r, b := range n.rowBucket {
		if b >= 0 {
			n.rowOrd[r] = sizes[b]
			sizes[b]++
		}
	}
	start := make([]int, len(sizes)+1) // bucket → its first slot in the arenas
	for b, size := range sizes {
		start[b+1] = start[b] + int(size)
	}
	members := start[len(sizes)]

	// The parent side of each edge: resolve every row to the child's bucket
	// (allotting empty ones for keys the child never had), then carve the
	// reverse lists.
	for ci, c := range n.children {
		ids := make([]int32, rows)
		for r, b := range n.rowBucket {
			ids[r] = min(b, 0) // −1 skips a row the atom rejects
		}
		c.bucketsFor(n.base, ids, n.childKeyPos[ci])
		joins := make([]int32, len(c.buckets))
		for _, b := range ids {
			if b >= 0 {
				joins[b]++
			}
		}
		arena, off := make([]int32, members), 0
		for b, k := range joins {
			c.buckets[b].parents = arena[off : off : off+int(k)]
			off += int(k)
		}
		for r, b := range ids {
			if b >= 0 {
				c.buckets[b].parents = append(c.buckets[b].parents, int32(r))
			}
		}
		n.childBkt[ci] = ids
	}

	rowArena, wArena, treeArena := make([]int32, members), make([]int64, members), make([]int64, members)
	for r, b := range n.rowBucket {
		if b >= 0 {
			slot := start[b] + int(n.rowOrd[r])
			rowArena[slot], wArena[slot] = int32(r), n.weightOf(int32(r))
		}
	}
	for b := range sizes {
		lo, hi := start[b], start[b+1]
		n.buckets[b].rows = rowArena[lo:hi:hi]
		n.buckets[b].w = fenwick.Over(wArena[lo:hi:hi], treeArena[lo:hi:hi])
	}
}

// Tables exports the index's base contents, sorted by relation name, for
// persistence or rebuild. Values are shared with the index, not copied —
// rows are never mutated in place, so the export stays valid, but treat it
// as read-only.
func (idx *Index) Tables() []BaseTable {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	names := make([]string, 0, len(idx.bases))
	for name := range idx.bases {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]BaseTable, 0, len(names))
	for _, name := range names {
		bs := idx.bases[name]
		tb := BaseTable{Name: name, Arity: bs.arity, Rows: len(bs.alive), Values: bs.vals[:len(bs.vals):len(bs.vals)]}
		for pos, ok := range bs.alive {
			if !ok {
				tb.Dead = append(tb.Dead, int64(pos))
			}
		}
		out = append(out, tb)
	}
	return out
}

// Rebuild constructs a fresh index over the same logical contents — the
// compactor's rebuild-aside seam. Only a read lock is taken (to export the
// tables), so probes on the source continue while the copy is assembled.
func (idx *Index) Rebuild() (*Index, error) {
	return NewFromTables(idx.q, idx.Tables())
}

// ValidateUpdate checks that an update targeting the named base relation
// with the given tuple arity would be accepted, without touching any
// state. Callers that stage side effects around an update (dictionary
// interning, WAL appends) use this to reject garbage before paying them.
func (idx *Index) ValidateUpdate(baseRelation string, arity int) error {
	_, err := idx.baseFor(baseRelation, arity) // bases and arities are fixed at build: no lock
	return err
}

func (idx *Index) baseFor(baseRelation string, arity int) (*baseSet, error) {
	bs, ok := idx.bases[baseRelation]
	if !ok {
		return nil, fmt.Errorf("dynaccess: no atom over relation %q", baseRelation)
	}
	if arity != bs.arity {
		return nil, fmt.Errorf("dynaccess: tuple arity %d, relation %q needs %d", arity, baseRelation, bs.arity)
	}
	return bs, nil
}

// matches reports whether a base row passes the atom's precompiled
// conditions (constants and repeated variables).
func (n *node) matches(raw []relation.Value) bool {
	for _, c := range n.constChecks {
		if raw[c.pos] != c.val {
			return false
		}
	}
	for _, e := range n.eqChecks {
		if raw[e[0]] != raw[e[1]] {
			return false
		}
	}
	return true
}

// bucketFor returns the id of the bucket whose key is raw's values at proj
// — n.keyPos for n's own rows, the parent's childKeyPos for a parent's —
// allotting an empty bucket the first time either side mentions the key.
func (n *node) bucketFor(raw []relation.Value, proj []int) int32 {
	b, added := n.keys.Intern(raw, proj)
	if added {
		n.buckets = append(n.buckets, bucket{})
	}
	return b
}

// bucketsFor is bucketFor for every row r of src — n's base set, or its
// parent's — whose ids[r] is not −1, in row order, setting ids[r] to the
// bucket id: one block-hashed pass for a bulk load.
func (n *node) bucketsFor(src *baseSet, ids []int32, proj []int) {
	n.keys.InternRows(ids, src.vals, src.arity, proj)
	for len(n.buckets) < n.keys.Len() {
		n.buckets = append(n.buckets, bucket{})
	}
}

// weightOf computes the current weight of a row from its child buckets'
// totals.
func (n *node) weightOf(row int32) int64 {
	if !n.base.alive[row] {
		return 0
	}
	w := int64(1)
	for ci, c := range n.children {
		if w *= c.buckets[n.childBkt[ci][row]].w.Total(); w == 0 {
			return 0
		}
	}
	return w
}

// appendRow registers the base relation's newest row in this node and
// reports whether the atom accepts it.
func (idx *Index) appendRow(n *node, raw []relation.Value, row int32) bool {
	if !n.matches(raw) {
		// Rejected rows still take a slot: the arrays are indexed by base
		// position.
		n.rowBucket = append(n.rowBucket, -1)
		n.rowOrd = append(n.rowOrd, 0)
		for ci := range n.childBkt {
			n.childBkt[ci] = append(n.childBkt[ci], -1)
		}
		return false
	}
	b := n.bucketFor(raw, n.keyPos)
	bk := &n.buckets[b]
	n.rowBucket = append(n.rowBucket, b)
	n.rowOrd = append(n.rowOrd, int32(len(bk.rows)))
	bk.rows = append(bk.rows, row)
	for ci, c := range n.children {
		cb := c.bucketFor(raw, n.childKeyPos[ci])
		n.childBkt[ci] = append(n.childBkt[ci], cb)
		c.buckets[cb].parents = append(c.buckets[cb].parents, row)
	}
	w := n.weightOf(row)
	bk.w.Append(w)
	if w != 0 {
		idx.cascade(n, b)
	}
	return true
}

// cascade propagates the changed total of n's bucket b to the ancestors:
// every parent row joining a changed bucket gets its weight recomputed, and
// the buckets whose totals moved form the next level's frontier.
func (idx *Index) cascade(n *node, b int32) {
	cur, next := append(idx.frontier[0][:0], b), idx.frontier[1][:0]
	for ; len(cur) > 0 && n.parent != nil; n = n.parent {
		p := n.parent
		idx.stamp++
		for _, b := range cur {
			for _, row := range n.buckets[b].parents {
				pb := p.rowBucket[row]
				bk, ord := &p.buckets[pb], int(p.rowOrd[row])
				if w := p.weightOf(row); w != bk.w.Value(ord) {
					bk.w.Set(ord, w)
					if bk.stamp != idx.stamp {
						bk.stamp = idx.stamp
						next = append(next, pb)
					}
				}
			}
		}
		cur, next = next, cur[:0]
	}
	idx.frontier[0], idx.frontier[1] = cur, next // keep what they grew to
}

// Insert adds a base-relation tuple to the index (set semantics: duplicates
// are no-ops). The tuple is routed to every atom over that relation. It
// reports whether any node changed. NOTE: Insert updates the index, not the
// relation.Database it was built from.
func (idx *Index) Insert(baseRelation string, raw relation.Tuple) (bool, error) {
	bs, err := idx.baseFor(baseRelation, len(raw))
	if err != nil {
		return false, err
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if len(bs.alive) == relation.MaxTuples {
		return false, fmt.Errorf("dynaccess: relation %q is full (%d tuples)", baseRelation, relation.MaxTuples)
	}
	// The base set records the tuple even when no atom's conditions match
	// it: logically it is in the relation, and a rebuild must run it
	// through the same filters.
	row, added := bs.ids.Intern(raw, bs.allPos)
	any := false
	switch {
	case added:
		bs.vals = append(bs.vals, raw...) // raw may be a caller-owned buffer
		bs.alive = append(bs.alive, true)
		for _, n := range bs.nodes {
			if idx.appendRow(n, raw, row) {
				any = true
			}
		}
	case !bs.alive[row]: // revive the tombstone in place
		bs.alive[row] = true
		any = idx.reweigh(bs, row)
	}
	return any, nil
}

// Delete removes a base-relation tuple (a no-op if absent). It reports
// whether anything changed.
func (idx *Index) Delete(baseRelation string, raw relation.Tuple) (bool, error) {
	bs, err := idx.baseFor(baseRelation, len(raw))
	if err != nil {
		return false, err
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	row, ok := bs.ids.Lookup(raw, bs.allPos)
	if !ok || !bs.alive[row] {
		return false, nil
	}
	bs.alive[row] = false
	return idx.reweigh(bs, row), nil
}

// reweigh refreshes a row whose liveness just flipped in every atom that
// accepts it, and reports whether one does.
func (idx *Index) reweigh(bs *baseSet, row int32) (any bool) {
	for _, n := range bs.nodes {
		b := n.rowBucket[row]
		if b < 0 {
			continue
		}
		any = true
		bk, ord := &n.buckets[b], int(n.rowOrd[row])
		if w := n.weightOf(row); w != bk.w.Value(ord) {
			bk.w.Set(ord, w)
			idx.cascade(n, b)
		}
	}
	return any
}

// Count returns the current |Q(D)| in constant time.
func (idx *Index) Count() int64 {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.countLocked()
}

// countLocked is Count with the lock already held (RWMutex read locks are
// not re-entrant when a writer is queued, so internal callers must not call
// the public method).
func (idx *Index) countLocked() int64 { return idx.root.buckets[0].w.Total() }

// Head returns the output variable order.
func (idx *Index) Head() []string { return idx.head }

// Access returns the j-th answer of the current enumeration order. The order
// is deterministic between updates but may change across them (deleted
// ranges close up; insertions append within buckets).
func (idx *Index) Access(j int64) (relation.Tuple, error) {
	answer := make(relation.Tuple, len(idx.head))
	if err := idx.AccessInto(j, answer); err != nil {
		return nil, err
	}
	return answer, nil
}

// AccessInto is Access writing into a caller-provided buffer (len == arity),
// avoiding the answer allocation in tight loops.
func (idx *Index) AccessInto(j int64, answer relation.Tuple) error {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if j < 0 || j >= idx.countLocked() {
		return access.ErrOutOfBounds
	}
	idx.subtreeAccess(idx.root, 0, j, answer)
	return nil
}

// subtreeAccess writes the j-th answer of n's bucket b; the caller holds at
// least the read lock and has checked j against the bucket's total.
func (idx *Index) subtreeAccess(n *node, b int32, j int64, answer relation.Tuple) {
	bk := &n.buckets[b]
	ord, rem := bk.w.Find(j)
	row := bk.rows[ord]
	raw := n.base.row(row)
	for k, col := range n.outCols {
		answer[col] = raw[n.outSrc[k]]
	}
	for ci := len(n.children) - 1; ci >= 0; ci-- {
		c, cb := n.children[ci], n.childBkt[ci][row]
		total := c.buckets[cb].w.Total()
		idx.subtreeAccess(c, cb, rem%total, answer)
		rem /= total
	}
}

// rows allocates k answer tuples over one flat k × arity buffer.
func (idx *Index) rows(k int) []relation.Tuple {
	ar := len(idx.head)
	flat := make([]relation.Value, k*ar)
	out := make([]relation.Tuple, k)
	for i := range out {
		out[i] = flat[i*ar : (i+1)*ar : (i+1)*ar]
	}
	return out
}

// AccessBatch returns Access(j) for every j in js, in order, all against one
// consistent state: the read lock is taken once for the batch. One
// out-of-range position fails the whole call with access.ErrOutOfBounds
// before any answer is assembled.
func (idx *Index) AccessBatch(ctx context.Context, js []int64) ([]relation.Tuple, error) {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	n := idx.countLocked()
	for _, j := range js {
		if j < 0 || j >= n {
			return nil, access.ErrOutOfBounds
		}
	}
	out := idx.rows(len(js))
	for i, j := range js {
		if i%64 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		idx.subtreeAccess(idx.root, 0, j, out[i])
	}
	return out, nil
}

// InvertedAccess returns the current position of an answer, or ok=false.
func (idx *Index) InvertedAccess(answer relation.Tuple) (int64, bool) {
	if len(answer) != len(idx.head) {
		return 0, false
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.invertedSubtree(idx.root, answer)
}

func (idx *Index) invertedSubtree(n *node, answer relation.Tuple) (int64, bool) {
	// Locate this node's row: read the base tuple it would have come from
	// off the answer (into a stack buffer) and ask the identity table.
	var buf [relation.KeyBufCap / 8]relation.Value
	raw := buf[:]
	if len(n.rawSrc) > len(buf) {
		raw = make([]relation.Value, len(n.rawSrc))
	}
	raw = raw[:len(n.rawSrc)]
	for pos, src := range n.rawSrc {
		if src >= 0 {
			raw[pos] = answer[src]
		}
	}
	for _, c := range n.constChecks {
		raw[c.pos] = c.val
	}
	row, ok := n.base.ids.Lookup(raw, n.base.allPos)
	if !ok {
		return 0, false
	}
	bk, ord := &n.buckets[n.rowBucket[row]], int(n.rowOrd[row])
	if bk.w.Value(ord) == 0 {
		return 0, false
	}
	var offset int64
	for ci, c := range n.children {
		ji, ok := idx.invertedSubtree(c, answer)
		if !ok {
			return 0, false
		}
		offset = offset*c.buckets[n.childBkt[ci][row]].w.Total() + ji
	}
	return bk.w.Prefix(ord) + offset, true
}

// Contains reports whether answer is currently in Q(D).
func (idx *Index) Contains(answer relation.Tuple) bool {
	_, ok := idx.InvertedAccess(answer)
	return ok
}

// Sample returns a uniformly random current answer, or ok=false when empty.
func (idx *Index) Sample(rng *rand.Rand) (relation.Tuple, bool) {
	if out := idx.SampleN(1, rng); len(out) == 1 {
		return out[0], true
	}
	return nil, false
}

// SampleN returns k uniformly random current answers drawn independently
// (with replacement), all against one consistent snapshot of the index: the
// read lock is held across the batch, so no update interleaves mid-batch.
// It returns no answers exactly when the index is empty or k ≤ 0.
func (idx *Index) SampleN(k int64, rng *rand.Rand) []relation.Tuple {
	if k <= 0 {
		return nil
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	n := idx.countLocked()
	if n == 0 {
		return nil
	}
	out := idx.rows(int(k))
	for _, row := range out {
		idx.subtreeAccess(idx.root, 0, rng.Int63n(n), row)
	}
	return out
}
