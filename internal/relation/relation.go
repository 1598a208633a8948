package relation

import (
	"fmt"
	"math/bits"
	"sort"
)

// Relation is a finite set of tuples over a schema, stored column-major: one
// contiguous []Value per attribute. Insertion order is preserved and a
// relation never holds the same tuple twice; this determinism is what later
// lets two access structures built from filtered versions of the same
// relation have *compatible* enumeration orders (Section 5.2 of the paper).
//
// # The set invariant and the membership index
//
// Every constructor and operator keeps the rows distinct, but only the ones
// that can be handed a duplicate pay for a check. Insert (and with it every
// NewRelation + Insert load, and Filter) enforces the invariant against the
// membership index; DistinctColumns, the CSV load's constructor, drops
// later duplicates in one grouping pass whose table becomes that index;
// Project finds its duplicates with a key set; FromColumns
// and AdoptColumns trust their caller; SemijoinWith and SortTuples only
// drop or permute rows of a set; Lend keeps every row and column of one.
// reduce.Instantiate relies on exactly this: a base relation is a set, so
// selecting rows and dropping constant or repeated-variable columns cannot
// produce a duplicate, and no hashing is needed to gather them — and an
// atom that selects nothing copies nothing, it borrows the base's columns
// (Lend) until a semijoin shrinks it.
//
// The membership index maps a full tuple to its position. Like every hashed
// key lookup of Relation and Grouping it is a flatTable: one pointer-free
// array of open-addressed slots with a per-table hash seed, whose ids here
// are the row positions themselves, so it stores no key — a probe hashes the
// tuple and compares it against the columns, for every arity and every
// value, and never encodes a key. (GroupBy uses the same table over its key
// columns, and so do the key sets of SemijoinWith and Project, except over a
// single column whose values span little (denseSpan): a key set spanning
// less than a small multiple of its row count, or a cache-sized bitmap, is a
// bitmap indexed by value, and a grouping spanning at most that multiple is
// an array of group ids indexed by value. The access index releases a
// grouping's key lookup once it is built.)
// The membership index is present or absent:
//
//   - present: NewRelation creates it empty, DistinctColumns full,
//     BuildIndex from the columns, and Insert keeps it current. Lend hands
//     a present index to the borrowing relation with the columns, so the
//     base and every borrower read one table (marked lent), which Insert
//     on either side copies before it writes;
//   - absent: FromColumns, AdoptColumns, a frozen base's Lend, Project,
//     SemijoinWith that removes a row and SortTuples leave the relation
//     without one — positions changed or were never hashed. BuildIndex
//     builds it, pre-sized to Len; Insert builds it before its first
//     check, and Clone builds one into its copy. Position, Contains and
//     PositionProjected read it unchecked, so they panic on an absent
//     index: a probe never builds one.
//
// The semijoin sweeps run on unindexed or shared relations, and the access
// index (internal/access) builds the membership index of every node
// relation it probes, once: when it is built, before its bucket gather, or
// for a snapshot-restored index, on its first inverted access, so a cold
// start that never tests membership never hashes a tuple.
//
// # Concurrency
//
// A Relation is not synchronized. The contract used across the library is
// build-then-share: mutations (Insert, SemijoinWith, SortTuples, BuildIndex)
// happen during preprocessing on one goroutine; after an index is built over
// the relation, the column arrays are immutable and may be read — including
// via Col, which exposes them directly — from any number of goroutines.
// Whoever shares a relation whose membership index is absent decides when
// it is built, and orders that build before every probe (the access index
// does so under a sync.Once).
//
// A base relation lends its columns and its membership index to every index
// opened over it (Lend): a node relation that no semijoin shrank, and that
// is in bucket order, reads the base's own arrays and table for the index's
// lifetime. After an Open, Insert into the base stays legal — a lent column
// is clipped to the length it had, and an append writes only past it, and a
// lent table is copied before Insert writes it, on the base or on a
// borrower — but the in-place mutators (SemijoinWith) on the base are not:
// they would rewrite rows an index reads.
type Relation struct {
	name   string
	schema Schema
	cols   [][]Value
	n      int

	// index is the full-tuple membership index (ids are row positions);
	// nil while it is absent.
	index *flatTable

	// frozen marks a relation whose columns alias a read-only snapshot
	// mapping: mutating it would fault on the mapped pages, so mutators
	// refuse up front with a typed panic/error instead.
	frozen bool

	// borrowed marks a relation whose columns may be another relation's
	// (see Lend): keepRows gathers it into fresh arrays instead of
	// compacting it in place.
	borrowed bool
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{
		name:   name,
		schema: schema,
		cols:   make([][]Value, len(schema)),
		index:  newFlatTable(0),
	}
}

// FromColumns constructs a relation directly over existing column storage —
// the restore half of the snapshot seam. The columns are adopted, not
// copied (they typically alias a read-only file mapping), the relation is
// marked immutable, and it has no membership index, so opening a snapshot
// costs no per-tuple hashing: call BuildIndex before the first Position or
// Contains. Rows are trusted to be duplicate-free: they were written by a
// relation that enforced set semantics.
func FromColumns(name string, schema Schema, cols [][]Value) (*Relation, error) {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	r, err := AdoptColumns(name, schema, n, cols)
	if err != nil {
		return nil, err
	}
	r.frozen = true
	return r, nil
}

// AdoptColumns is the mutable counterpart of FromColumns: it wraps n rows of
// freshly built heap columns (adopted, not copied) in a relation that the
// in-place operators may go on to shrink, with no membership index (see
// BuildIndex). The caller guarantees the rows are distinct — this is how a
// selection or projection of a set enters the reduction without being
// hashed a second time. n is explicit because a relation of arity 0 has no
// column to carry it (it holds the empty tuple or nothing: n ≤ 1).
func AdoptColumns(name string, schema Schema, n int, cols [][]Value) (*Relation, error) {
	if err := checkColumns(name, schema, n, cols); err != nil {
		return nil, err
	}
	if len(cols) == 0 && n > 1 {
		return nil, fmt.Errorf("relation %s: %d rows of arity 0 cannot be distinct", name, n)
	}
	return &Relation{name: name, schema: schema, cols: cols, n: n}, nil
}

// checkColumns reports whether cols are n rows over schema, within
// MaxTuples.
func checkColumns(name string, schema Schema, n int, cols [][]Value) error {
	if len(cols) != len(schema) {
		return fmt.Errorf("relation %s: %d columns for schema arity %d", name, len(cols), len(schema))
	}
	for a, col := range cols {
		if len(col) != n {
			return fmt.Errorf("relation %s: column %d has %d rows, want %d", name, a, len(col), n)
		}
	}
	if n > MaxTuples {
		return fmt.Errorf("relation %s: %d tuples exceeds the %d-tuple limit", name, n, MaxTuples)
	}
	return nil
}

// DistinctColumns wraps n rows of freshly built heap columns (adopted, not
// copied) in the relation that NewRelation and an Insert of every row in
// order would build: the first occurrence of each row, in order, with the
// membership index maintained. The rows are grouped in one pass, a block at
// a time (groupRows), and the grouping's table becomes the membership
// index — its ids are the first occurrences' positions — so no row is
// hashed twice; when rows repeat, the first occurrences are gathered into
// fresh columns. This is how a CSV load enters the database.
func DistinctColumns(name string, schema Schema, n int, cols [][]Value) (*Relation, error) {
	if err := checkColumns(name, schema, n, cols); err != nil {
		return nil, err
	}
	t, first := groupRows(cols, n, nil, n)
	if len(first) < n {
		for a, col := range cols {
			kept := make([]Value, len(first))
			for g, i := range first {
				kept[g] = col[i]
			}
			cols[a] = kept
		}
	}
	return &Relation{name: name, schema: schema, cols: cols, n: len(first), index: t}, nil
}

// Lend returns a relation named name over schema (of r's arity) holding r's
// tuples, for an operator pipeline that may go on to shrink it: its columns
// are r's own, clipped to Len so that an append reallocates instead of
// writing into r's spare capacity, and marked borrowed, so that keepRows
// gathers the kept rows into fresh arrays and never writes r. When r's
// membership index is present, the borrower shares it too — the same rows
// in the same order — and the table is marked lent, so that Insert on
// either relation copies it before writing; keepRows drops it (never
// writing it) when a semijoin removes a row. A frozen r's columns alias a
// snapshot mapping that a handle must outlive, so they are copied instead,
// and the borrower has no membership index, as AdoptColumns has none.
func (r *Relation) Lend(name string, schema Schema) (*Relation, error) {
	if len(schema) != len(r.schema) {
		return nil, fmt.Errorf("relation %s: lend as arity %d != %d", r.name, len(schema), len(r.schema))
	}
	cols := make([][]Value, len(r.cols))
	for a, col := range r.cols {
		cols[a] = col[:r.n:r.n]
		if r.frozen {
			cols[a] = append(make([]Value, 0, r.n), col...)
		}
	}
	out, err := AdoptColumns(name, schema, r.n, cols)
	if err != nil {
		return nil, err
	}
	if !r.frozen {
		out.borrowed = true
		if r.index != nil {
			r.index.lent.Store(true)
			out.index = r.index
		}
	}
	return out, nil
}

// BuildIndex builds an absent membership index now, on the calling
// goroutine, pre-sized to the row count, a block of rows at a time; a no-op
// when the index is present. The rows are a set, so each is put in the
// first free slot from its home without looking for an equal one. Like
// every mutator it must not run concurrently with other use of the
// relation — a frozen relation included: whoever shares it orders this call
// before its probes.
func (r *Relation) BuildIndex() {
	if r.index != nil {
		return
	}
	t := newFlatTable(r.n)
	var buf [blockRows]uint64
	for lo := 0; lo < r.n; lo += blockRows {
		hs := buf[:min(blockRows, r.n-lo)]
		t.hashBlock(hs, r.cols, lo)
		for _, h := range hs {
			t.put(h&hashMask | uint64(t.n+1))
			t.n++
		}
	}
	r.index = t
}

// Indexed reports whether the membership index is present. Diagnostic: it
// must not race with BuildIndex.
func (r *Relation) Indexed() bool { return r.index != nil }

// SharesIndexWith reports whether r and s hold one membership index table —
// a base and a relation it lent its index to (Lend), until either copies
// it. Diagnostic, with Indexed's caveat.
func (r *Relation) SharesIndexWith(s *Relation) bool { return r.index != nil && r.index == s.index }

// mustBeMutable guards the in-place mutators: a frozen relation's columns
// alias a read-only snapshot mapping, and writing them would fault.
func (r *Relation) mustBeMutable(op string) {
	if r.frozen {
		panic(fmt.Sprintf("relation %s: %s on a snapshot-backed (immutable) relation", r.name, op))
	}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema. Callers must not mutate it.
func (r *Relation) Schema() Schema { return r.schema }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.schema) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Col returns the column of attribute position a: Col(a)[i] is tuple i's
// value at a. The slice aliases the relation's storage — callers must treat
// it as read-only, and may share it freely once the relation is no longer
// being mutated (see the concurrency contract above).
func (r *Relation) Col(a int) []Value { return r.cols[a] }

// At returns the value of tuple i at attribute position a.
func (r *Relation) At(i, a int) Value { return r.cols[a][i] }

// appendRow appends t's values to the columns (no duplicate check).
func (r *Relation) appendRow(t Tuple) {
	for a := range r.cols {
		r.cols[a] = append(r.cols[a], t[a])
	}
	r.n++
}

// MaxTuples is the hard per-relation size limit: tuple positions are stored
// as int32 throughout the engine (position indexes, groupings, the access
// index's flattened bucket tables), so a relation must stay below 2^31-1
// rows. Insert fails explicitly at the limit instead of wrapping silently.
const MaxTuples = 1<<31 - 1

// Insert adds a tuple. It returns an error on arity mismatch (or on a
// relation at MaxTuples) and reports whether the tuple was newly added
// (false means it was already present — set semantics). The tuple's values
// are copied; callers may reuse t. An absent membership index is built
// first, and a shared one (Lend) is copied before the first write, so the
// relations it was shared with keep the table they read.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != len(r.schema) {
		return false, fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.name, len(t), len(r.schema))
	}
	if r.frozen {
		return false, fmt.Errorf("relation %s: insert into a snapshot-backed (immutable) relation", r.name)
	}
	r.BuildIndex()
	if r.n >= MaxTuples {
		return false, fmt.Errorf("relation %s: at the %d-tuple limit (positions are int32)", r.name, MaxTuples)
	}
	if r.index.lent.Load() {
		r.index = r.index.clone()
	}
	if _, added := r.index.insert(t, r.cols, nil); !added {
		return false, nil
	}
	r.appendRow(t)
	return true, nil
}

// MustInsert inserts and panics on arity errors; duplicates are ignored.
func (r *Relation) MustInsert(vals ...Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Tuple returns the i-th tuple in insertion order, gathered from the columns
// into a fresh Tuple. Hot paths should read columns directly (Col, At,
// ReadTuple) instead.
func (r *Relation) Tuple(i int) Tuple {
	t := make(Tuple, len(r.cols))
	for a, col := range r.cols {
		t[a] = col[i]
	}
	return t
}

// ReadTuple gathers the i-th tuple into buf (len must equal the arity) —
// the allocation-free form of Tuple.
func (r *Relation) ReadTuple(i int, buf Tuple) {
	for a, col := range r.cols {
		buf[a] = col[i]
	}
}

// Tuples materializes all tuples in insertion order (one contiguous backing
// array, two allocations). It is a copy: intended for cold paths — oracles,
// bulk loads, tests; hot paths iterate the columns. Callers must not mutate
// the returned tuples (they may share backing with future calls' captures).
func (r *Relation) Tuples() []Tuple {
	arity := len(r.cols)
	out := make([]Tuple, r.n)
	if arity == 0 {
		for i := range out {
			out[i] = Tuple{}
		}
		return out
	}
	backing := make([]Value, r.n*arity)
	for i := range out {
		t := backing[i*arity : (i+1)*arity : (i+1)*arity]
		for a, col := range r.cols {
			t[a] = col[i]
		}
		out[i] = t
	}
	return out
}

// Contains reports whether t is in the relation. Like Position it panics
// when the membership index is absent.
func (r *Relation) Contains(t Tuple) bool { return r.Position(t) >= 0 }

// Position returns the insertion position of t, or -1. Allocation-free. It
// panics when the membership index is absent (BuildIndex).
func (r *Relation) Position(t Tuple) int {
	if len(t) != len(r.schema) {
		return -1
	}
	return int(r.index.find(t, r.cols, nil))
}

// PositionProjected returns the insertion position of the tuple whose i-th
// value is src[proj[i]] — Position(src.Project(proj)) without the
// intermediate tuple, and allocation-free for arities ≤ KeyBufCap/8.
// len(proj) must equal the relation's arity. This is the constant-time
// "locate the node tuple inside an answer" step of inverted access
// (Algorithm 4 line 4). Like Position it panics when the membership index
// is absent.
func (r *Relation) PositionProjected(src Tuple, proj []int) int {
	if len(proj) != len(r.schema) {
		return -1
	}
	var buf [keyStackCap]Value
	return int(r.index.find(gatherKey(&buf, src, proj), r.cols, nil))
}

// Filter returns a new relation containing the tuples satisfying keep, in the
// original relative order (order preservation is required for compatible
// enumeration orders across selections of the same base relation). The tuple
// passed to keep is a scratch buffer reused between calls — read it, do not
// retain it.
func (r *Relation) Filter(name string, keep func(Tuple) bool) *Relation {
	out := NewRelation(name, r.schema)
	scratch := make(Tuple, len(r.cols))
	for i := 0; i < r.n; i++ {
		r.ReadTuple(i, scratch)
		if keep(scratch) {
			if _, err := out.Insert(scratch); err != nil {
				panic(err) // unreachable: schemas are identical
			}
		}
	}
	return out
}

// Project returns the projection of r onto attrs (set semantics, first
// occurrence wins, order preserved). Duplicates are found by collecting the
// distinct keys at the projected positions (distinctKeys), and the output keeps
// the first row of each; like every intermediate it has no membership
// index.
func (r *Relation) Project(name string, attrs []string) (*Relation, error) {
	pos, err := r.schema.Positions(attrs)
	if err != nil {
		return nil, err
	}
	first := r.distinctKeys(pos)
	cols := make([][]Value, len(pos))
	for k, p := range pos {
		src, col := r.cols[p], make([]Value, len(first))
		for g, i := range first {
			col[g] = src[i]
		}
		cols[k] = col
	}
	return AdoptColumns(name, Schema(attrs), len(first), cols)
}

// SemijoinWith removes from r (in place) every tuple that has no matching
// tuple in s on their shared attributes: r ← r ⋉ s. If the relations share no
// attributes, r is unchanged when s is non-empty and emptied when s is empty
// (the join with an empty relation is empty). It returns the number of tuples
// removed. Linear time in |r| + |s|, and it hashes at most the smaller side:
//
//   - an empty r returns at once, and an empty s empties r, before anything
//     is read;
//   - a single shared column whose values in s span little (denseSpan) is a
//     bitmap of s's values, and every row of r costs one bit test;
//   - otherwise, when s is the larger side, r's keys are grouped (groupRows)
//     and s streams through their table, marking every group it hits; a row
//     of r survives when its group was hit;
//   - otherwise s's distinct keys are grouped and every row of r is looked
//     up in their table.
//
// The lookups run a block of rows at a time (flatTable.lookupBlock), and the
// surviving rows keep their order and are compacted column by column. When
// rows were removed the membership index is dropped, not rebuilt: positions
// shift again with every sweep of a reduction, and whoever keeps the result
// builds the index once (BuildIndex).
func (r *Relation) SemijoinWith(s *Relation) int {
	r.mustBeMutable("SemijoinWith")
	switch {
	case r.n == 0:
		return 0
	case s.n == 0:
		n := r.n
		r.clear()
		return n
	}
	shared := r.schema.Intersect(s.schema)
	if len(shared) == 0 {
		return 0
	}
	rPos, _ := r.schema.Positions(shared)
	sPos, _ := s.schema.Positions(shared)
	rCols, sCols := r.keyCols(rPos), s.keyCols(sPos)
	keep := make([]uint64, (r.n+63)/64)
	var ids [blockRows]int32
	var dense *keySet
	if len(sCols) == 1 {
		dense = denseKeys(sCols[0])
	}
	switch {
	case dense != nil:
		for _, v := range sCols[0] {
			dense.add(v)
		}
		for i, v := range rCols[0] {
			if dense.has(v) {
				keep[i/64] |= 1 << (i % 64)
			}
		}
	case s.n > r.n:
		groupOf := make([]uint32, r.n)
		t, first := groupRows(rCols, r.n, groupOf, 0)
		hit, left := make([]bool, len(first)), len(first)
		for lo := 0; lo < s.n && left > 0; lo += blockRows {
			block := ids[:min(blockRows, s.n-lo)]
			t.lookupBlock(block, sCols, lo, rCols, first)
			for _, g := range block {
				if g >= 0 && !hit[g] {
					hit[g] = true
					left--
				}
			}
		}
		for i, g := range groupOf {
			if hit[g] {
				keep[i/64] |= 1 << (i % 64)
			}
		}
	default:
		t, first := groupRows(sCols, s.n, nil, 0)
		for lo := 0; lo < r.n; lo += blockRows {
			block := ids[:min(blockRows, r.n-lo)]
			t.lookupBlock(block, rCols, lo, sCols, first)
			for j, id := range block {
				if id >= 0 {
					i := lo + j
					keep[i/64] |= 1 << (i % 64)
				}
			}
		}
	}
	return r.keepRows(keep)
}

// keepRows keeps the rows whose bit is set in keep (one bit per row, in
// order) and returns how many rows it removed. Each column is compacted in
// place, or, when it is borrowed (Lend), gathered into a fresh array of
// exactly the kept size, which the relation then owns.
func (r *Relation) keepRows(keep []uint64) int {
	kept := 0
	for _, b := range keep {
		kept += bits.OnesCount64(b)
	}
	removed := r.n - kept
	if removed == 0 {
		return 0
	}
	for a, col := range r.cols {
		dst := col
		if r.borrowed {
			dst = make([]Value, kept)
		}
		w := 0
		for k, b := range keep {
			for ; b != 0; b &= b - 1 {
				dst[w] = col[k*64+bits.TrailingZeros64(b)]
				w++
			}
		}
		r.cols[a] = dst[:w]
	}
	r.n = kept
	r.borrowed = false
	r.index = nil // positions changed; a shared table is let go unwritten
	return removed
}

// clear empties the relation in place.
func (r *Relation) clear() {
	for a := range r.cols {
		r.cols[a] = nil
	}
	r.n = 0
	r.index = nil
}

// Clone returns a deep copy of r: columns and index are fresh — r's index
// copied, or, when r has none, one built into the copy, so r is not
// written. Cloning a snapshot-backed relation yields an ordinary mutable
// heap relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{name: r.name, schema: r.schema, cols: make([][]Value, len(r.cols)), n: r.n}
	for a := range r.cols {
		out.cols[a] = append([]Value(nil), r.cols[a]...)
	}
	if r.index != nil {
		out.index = r.index.clone()
	} else {
		out.BuildIndex()
	}
	return out
}

// SortTuples sorts the tuples lexicographically; the membership index is
// dropped (positions changed). Used by the canonical-order mode
// and by tests that need content-determined order; the enumeration
// algorithms never require sorted input.
func (r *Relation) SortTuples() {
	r.mustBeMutable("SortTuples")
	perm := make([]int, r.n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool {
		i, j := perm[x], perm[y]
		for _, col := range r.cols {
			if col[i] != col[j] {
				return col[i] < col[j]
			}
		}
		return false
	})
	for a, col := range r.cols {
		nc := make([]Value, r.n)
		for x, i := range perm {
			nc[x] = col[i]
		}
		r.cols[a] = nc
	}
	r.index = nil
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s%v[%d tuples]", r.name, r.schema, r.n)
}
