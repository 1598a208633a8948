package relation

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"
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
// membership index; Project finds its duplicates by grouping; FromColumns
// and AdoptColumns trust their caller; SemijoinWith and SortTuples only
// drop or permute rows of a set. reduce.Instantiate relies on exactly this:
// a base relation is a set, so selecting rows and dropping constant or
// repeated-variable columns cannot produce a duplicate, and no hashing is
// needed to copy it.
//
// The membership index maps a full tuple to its position (packed 64-bit
// keys for arity ≤ 2, the canonical string key otherwise). It exists in one
// of two states:
//
//   - maintained (lazyOnce == nil): NewRelation creates it empty and Insert
//     keeps it current;
//   - deferred (lazyOnce != nil): FromColumns, AdoptColumns, SemijoinWith and
//     SortTuples leave the relation without one — positions changed or were
//     never hashed — and it is built, pre-sized to Len, by the first of
//     BuildIndex or a call that needs it (Position, Contains,
//     PositionProjected, Insert, Rename, Clone).
//
// Preprocessing never leaves that build to a probe: the semijoin sweeps run
// on deferred relations, and reduce.BuildFullJoin calls BuildIndex once on
// every node relation that survives the reduction. Only snapshot-restored
// relations (FromColumns) keep the build lazy on purpose, so a cold start
// that never tests membership never hashes a tuple.
//
// # Concurrency
//
// A Relation is not synchronized. The contract used across the library is
// build-then-share: mutations (Insert, SemijoinWith, SortTuples, BuildIndex)
// happen during preprocessing on one goroutine; after an index is built over
// the relation, the column arrays are immutable and may be read — including
// via Col, which exposes them directly — from any number of goroutines. A
// deferred membership index is materialized under a sync.Once, so
// concurrent first probes are safe too.
type Relation struct {
	name   string
	schema Schema
	cols   [][]Value
	n      int

	// Full-tuple membership index: exactly one of pindex/windex is non-nil
	// once the index exists.
	pindex map[uint64]int32
	windex map[string]int32

	// lazyOnce is non-nil while the membership index is deferred (see the
	// type comment); ensureIndex routes through it. nil means the index
	// exists and Insert maintains it.
	lazyOnce *sync.Once

	// frozen marks a relation whose columns alias a read-only snapshot
	// mapping: mutating it would fault on the mapped pages, so mutators
	// refuse up front with a typed panic/error instead.
	frozen bool
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema Schema) *Relation {
	r := &Relation{
		name:   name,
		schema: schema,
		cols:   make([][]Value, len(schema)),
	}
	if len(schema) <= 2 {
		r.pindex = make(map[uint64]int32)
	} else {
		r.windex = make(map[string]int32)
	}
	return r
}

// FromColumns constructs a relation directly over existing column storage —
// the restore half of the snapshot seam. The columns are adopted, not
// copied (they typically alias a read-only file mapping), the relation is
// marked immutable, and the membership index is deferred to first use
// (Position / Contains / inverted access), so opening a snapshot costs no
// per-tuple hashing. Rows are trusted to be duplicate-free: they were
// written by a relation that enforced set semantics.
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
// in-place operators may go on to shrink, with the membership index
// deferred. The caller guarantees the rows are distinct — this is how a
// selection or projection of a set enters the reduction without being
// hashed a second time. n is explicit because a relation of arity 0 has no
// column to carry it (it holds the empty tuple or nothing: n ≤ 1).
func AdoptColumns(name string, schema Schema, n int, cols [][]Value) (*Relation, error) {
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("relation %s: %d columns for schema arity %d", name, len(cols), len(schema))
	}
	for a, col := range cols {
		if len(col) != n {
			return nil, fmt.Errorf("relation %s: column %d has %d rows, want %d", name, a, len(col), n)
		}
	}
	if n > MaxTuples {
		return nil, fmt.Errorf("relation %s: %d tuples exceeds the %d-tuple limit", name, n, MaxTuples)
	}
	if len(cols) == 0 && n > 1 {
		return nil, fmt.Errorf("relation %s: %d rows of arity 0 cannot be distinct", name, n)
	}
	return &Relation{name: name, schema: schema, cols: cols, n: n, lazyOnce: new(sync.Once)}, nil
}

// ensureIndex materializes a deferred membership index. Safe under
// concurrent probes (sync.Once); a no-op while the index is maintained.
func (r *Relation) ensureIndex() {
	if o := r.lazyOnce; o != nil {
		o.Do(r.buildIndex)
	}
}

// BuildIndex materializes a deferred membership index now, on the calling
// goroutine, so that no later probe pays for it; a no-op when the index
// exists. Like every mutator it must not run concurrently with other use of
// the relation.
func (r *Relation) BuildIndex() {
	r.ensureIndex()
	// A frozen relation may already be shared with concurrent probes, so
	// its Once stays in place for them; anything else goes back to the
	// maintained state and probes skip the Once altogether.
	if !r.frozen {
		r.lazyOnce = nil
	}
}

// Indexed reports whether the membership index exists right now (false
// while it is deferred and unbuilt). Diagnostic: it must not race with the
// first probe of a deferred relation.
func (r *Relation) Indexed() bool { return r.pindex != nil || r.windex != nil }

// dropIndex discards the membership index after row positions changed and
// defers its rebuild.
func (r *Relation) dropIndex() {
	r.pindex, r.windex = nil, nil
	r.lazyOnce = new(sync.Once)
}

// buildIndex builds the membership index from the columns, pre-sized to the
// row count: packed keys for arities ≤ 2 (falling back to string keys at
// the first unpackable tuple), string keys otherwise.
func (r *Relation) buildIndex() {
	if len(r.schema) > 2 {
		r.buildWideIndex()
		return
	}
	all := r.allPositions()
	r.windex = nil
	r.pindex = make(map[uint64]int32, r.n)
	for i := 0; i < r.n; i++ {
		k, ok := r.packAt(i, all)
		if !ok {
			r.buildWideIndex()
			return
		}
		r.pindex[k] = int32(i)
	}
}

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

// keyAt returns the canonical string key of row i's values at positions.
func (r *Relation) keyAt(i int, positions []int) string {
	b := make([]byte, 0, 8*len(positions))
	for _, p := range positions {
		b = appendValue(b, r.cols[p][i])
	}
	return string(b)
}

// packAt packs row i's values at positions (len ≤ 2) into a uint64 key.
func (r *Relation) packAt(i int, positions []int) (uint64, bool) {
	switch len(positions) {
	case 0:
		return 0, true
	case 1:
		return uint64(r.cols[positions[0]][i]), true
	case 2:
		a, b := r.cols[positions[0]][i], r.cols[positions[1]][i]
		if !packable32(a) || !packable32(b) {
			return 0, false
		}
		return packPair(a, b), true
	}
	return 0, false
}

// buildWideIndex builds the membership index with string keys (arity > 2, or
// the first unpackable tuple on an arity-≤2 relation). The n keys are
// encoded into one arena that the map's string keys alias — one allocation
// instead of one string per tuple. The arena is never written again; keys
// Insert adds later are ordinary strings.
func (r *Relation) buildWideIndex() {
	r.pindex = nil
	r.windex = make(map[string]int32, r.n)
	width := 8 * len(r.cols)
	arena := make([]byte, 0, r.n*width)
	for i := 0; i < r.n; i++ {
		for a := range r.cols {
			arena = appendValue(arena, r.cols[a][i])
		}
		r.windex[unsafe.String(&arena[i*width], width)] = int32(i)
	}
}

// MaxTuples is the hard per-relation size limit: tuple positions are stored
// as int32 throughout the engine (position indexes, groupings, the access
// index's flattened bucket tables), so a relation must stay below 2^31-1
// rows. Insert fails explicitly at the limit instead of wrapping silently.
const MaxTuples = 1<<31 - 1

// Insert adds a tuple. It returns an error on arity mismatch (or on a
// relation at MaxTuples) and reports whether the tuple was newly added
// (false means it was already present — set semantics). The tuple's values
// are copied; callers may reuse t.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != len(r.schema) {
		return false, fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.name, len(t), len(r.schema))
	}
	if r.frozen {
		return false, fmt.Errorf("relation %s: insert into a snapshot-backed (immutable) relation", r.name)
	}
	r.ensureIndex()
	if r.n >= MaxTuples {
		return false, fmt.Errorf("relation %s: at the %d-tuple limit (positions are int32)", r.name, MaxTuples)
	}
	if r.pindex != nil {
		if k, ok := packVals(t...); ok {
			if _, dup := r.pindex[k]; dup {
				return false, nil
			}
			r.pindex[k] = int32(r.n)
			r.appendRow(t)
			return true, nil
		}
		r.buildWideIndex()
	}
	var buf [KeyBufCap]byte
	b := t.AppendKey(KeyScratch(&buf, len(t)))
	if _, dup := r.windex[string(b)]; dup {
		return false, nil
	}
	r.windex[string(b)] = int32(r.n)
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

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool { return r.Position(t) >= 0 }

// Position returns the insertion position of t, or -1. Allocation-free for
// packed indexes and for arities ≤ 32.
func (r *Relation) Position(t Tuple) int {
	if len(t) != len(r.schema) {
		return -1
	}
	r.ensureIndex()
	if r.pindex != nil {
		k, ok := packVals(t...)
		if !ok {
			return -1 // every stored tuple is packable; t cannot be present
		}
		if p, ok := r.pindex[k]; ok {
			return int(p)
		}
		return -1
	}
	var buf [KeyBufCap]byte
	b := t.AppendKey(KeyScratch(&buf, len(t)))
	if p, ok := r.windex[string(b)]; ok {
		return int(p)
	}
	return -1
}

// PositionProjected returns the insertion position of the tuple whose i-th
// value is src[proj[i]] — Position(src.Project(proj)) without the
// intermediate tuple, and allocation-free on the same terms as Position.
// len(proj) must equal the relation's arity. This is the constant-time
// "locate the node tuple inside an answer" step of inverted access
// (Algorithm 4 line 4).
func (r *Relation) PositionProjected(src Tuple, proj []int) int {
	if len(proj) != len(r.schema) {
		return -1
	}
	r.ensureIndex()
	if r.pindex != nil {
		var k uint64
		switch len(proj) {
		case 0:
			k = 0
		case 1:
			k = uint64(src[proj[0]])
		default:
			a, b := src[proj[0]], src[proj[1]]
			if !packable32(a) || !packable32(b) {
				return -1
			}
			k = packPair(a, b)
		}
		if p, ok := r.pindex[k]; ok {
			return int(p)
		}
		return -1
	}
	var buf [KeyBufCap]byte
	b := src.AppendProjectedKey(KeyScratch(&buf, len(proj)), proj)
	if p, ok := r.windex[string(b)]; ok {
		return int(p)
	}
	return -1
}

// Rename returns a view of r with a new name and schema (same tuples). The
// new schema must have the same arity. Columns and index are shared, not
// copied: this is how a query atom R(x, y) binds relation attributes to
// query variables. Mutating either relation afterwards corrupts the other;
// renamed views are read-only by convention.
func (r *Relation) Rename(name string, schema Schema) (*Relation, error) {
	if len(schema) != len(r.schema) {
		return nil, fmt.Errorf("relation %s: rename to arity %d != %d", r.name, len(schema), len(r.schema))
	}
	// The view shares the duplicate index, so a deferred index must exist
	// before the maps are captured (the view has no lazy hook of its own).
	r.ensureIndex()
	return &Relation{name: name, schema: schema, cols: r.cols, n: r.n, pindex: r.pindex, windex: r.windex, frozen: r.frozen}, nil
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
// occurrence wins, order preserved). Duplicates are found by grouping r on
// the projected positions — one packed-key lookup per row, no string key
// per tuple for ≤ 2 attributes — and the output keeps one row per group;
// its membership index is deferred like every intermediate's.
func (r *Relation) Project(name string, attrs []string) (*Relation, error) {
	pos, err := r.schema.Positions(attrs)
	if err != nil {
		return nil, err
	}
	first := r.GroupBy(pos).First
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
// removed. Linear time in |r| + |s|: only s is grouped on the shared
// attributes — its key set is all the semijoin probes — every row of r costs
// one lookup in it, and surviving rows are compacted column by column. When
// rows were removed the membership index is dropped, not rebuilt: positions
// shift again with every sweep of a reduction, and whoever keeps the result
// builds the index once (BuildIndex).
func (r *Relation) SemijoinWith(s *Relation) int {
	r.mustBeMutable("SemijoinWith")
	shared := r.schema.Intersect(s.schema)
	if len(shared) == 0 {
		if s.Len() > 0 {
			return 0
		}
		n := r.n
		r.clear()
		return n
	}
	rPos, _ := r.schema.Positions(shared)
	sPos, _ := s.schema.Positions(shared)
	sg := s.GroupBy(sPos)
	w := 0
	for i := 0; i < r.n; i++ {
		if _, ok := sg.LookupAt(r, i, rPos); !ok {
			continue
		}
		if w != i {
			for a := range r.cols {
				r.cols[a][w] = r.cols[a][i]
			}
		}
		w++
	}
	removed := r.n - w
	if removed > 0 {
		for a := range r.cols {
			r.cols[a] = r.cols[a][:w]
		}
		r.n = w
		r.dropIndex()
	}
	return removed
}

// clear empties the relation in place.
func (r *Relation) clear() {
	for a := range r.cols {
		r.cols[a] = nil
	}
	r.n = 0
	r.dropIndex()
}

// allPositions returns [0, 1, ..., arity-1].
func (r *Relation) allPositions() []int {
	out := make([]int, len(r.cols))
	for i := range out {
		out[i] = i
	}
	return out
}

// Clone returns a deep copy of r: columns and index are fresh. Cloning a
// snapshot-backed relation yields an ordinary mutable heap relation.
func (r *Relation) Clone() *Relation {
	r.ensureIndex()
	out := NewRelation(r.name, r.schema)
	for a := range r.cols {
		out.cols[a] = append([]Value(nil), r.cols[a]...)
	}
	out.n = r.n
	if r.pindex != nil {
		out.pindex = make(map[uint64]int32, len(r.pindex))
		for k, v := range r.pindex {
			out.pindex[k] = v
		}
	} else {
		out.pindex = nil
		out.windex = make(map[string]int32, len(r.windex))
		for k, v := range r.windex {
			out.windex[k] = v
		}
	}
	return out
}

// SortTuples sorts the tuples lexicographically; the membership index is
// dropped (positions changed) and deferred. Used by the canonical-order mode
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
	r.dropIndex()
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s%v[%d tuples]", r.name, r.schema, r.n)
}
