package relation

import (
	"math/bits"
	"math/rand/v2"
)

// flatTable serves every key lookup of Relation and Grouping that is not
// direct-addressed (see denseSpan): the membership index, GroupBy's key
// lookup and the key sets of SemijoinWith, Project and DistinctCount are all
// instances of it. (KeyTable, whose keys arrive without columns to compare
// against, keeps its own maps.) It maps a key — a row's values at some
// columns — to a dense int32 id, and it stores no keys: the key of id e is
// row rowOf(e) of the key columns the caller passes with every call
// (rowOf(e) = rows[e], or e itself when rows is nil). A lookup that meets a
// matching hash compares the probe against those columns, so no key is ever
// encoded, and the table is one pointer-free []uint64 the garbage collector
// never scans. The Dict interns strings through the same slots, growth and
// id numbering, hashing a string instead of a row and confirming a match
// against its own value table (see Dict).
//
// Slots are open-addressed with linear probing. A slot holds the top 32
// bits of its key's hash above id+1, and 0 marks it empty, so a probe walks
// adjacent words and reads a column only on a 32-bit hash match. The home
// slot is the hash's top log2(len(slots)) bits, so the stored half is enough
// to re-place an entry: the table doubles before it is more than three
// quarters full without reading a column or hashing a key again. Ids are
// 0 … n−1 in order of insertion. Every table draws its own hash seed, so
// keys chosen to collide — CSV cells reach the membership index from
// /admin/load — collide only under the seed they were chosen for.
type flatTable struct {
	slots []uint64 // hash&^(1<<32−1) | id+1 per occupied slot; 0 = empty
	shift uint     // 64 − log2(len(slots)): a hash's top bits pick its home slot
	n     int32    // ids held: 0 … n−1
	seed  uint64
}

// flatMinSlots is the capacity of an empty table.
const flatMinSlots = 8

// newFlatTable returns an empty table that holds hint ids without growing.
func newFlatTable(hint int) *flatTable {
	c := flatMinSlots
	for c*3 < hint*4 {
		c <<= 1
	}
	t := &flatTable{seed: rand.Uint64()}
	t.alloc(c)
	return t
}

func (t *flatTable) alloc(c int) {
	t.slots = make([]uint64, c)
	t.shift = uint(64 - bits.TrailingZeros(uint(c)))
}

// hashMask keeps the stored half of a hash.
const hashMask = ^uint64(1<<32 - 1)

// mix64 is a bijective avalanche mixer: every input bit flips each output
// bit with probability about one half.
func mix64(x uint64) uint64 {
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}

// hash hashes key under the table's seed. Each value is folded in through
// the mixer, so no difference between two keys cancels out independently of
// the seed.
func (t *flatTable) hash(key []Value) uint64 {
	h := t.seed
	for _, v := range key {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// find returns the id whose key equals key, or -1.
func (t *flatTable) find(key []Value, cols [][]Value, rows []int32) int32 {
	id, _ := t.probe(key, t.hash(key), cols, rows)
	return id
}

// probe returns the id whose key equals key, or -1 and the empty slot that
// ends key's probe sequence.
func (t *flatTable) probe(key []Value, h uint64, cols [][]Value, rows []int32) (int32, int) {
	mask := len(t.slots) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			return -1, s
		}
		if (e^h)&hashMask == 0 {
			id := int32(uint32(e)) - 1
			if equalAt(key, cols, rowOf(rows, id)) {
				return id, s
			}
		}
	}
}

// insert returns key's id, adding key as id n when it is absent; added
// reports which.
func (t *flatTable) insert(key []Value, cols [][]Value, rows []int32) (id int32, added bool) {
	t.reserve()
	h := t.hash(key)
	id, s := t.probe(key, h, cols, rows)
	if id >= 0 {
		return id, false
	}
	return t.add(s, h), true
}

// reserve makes room for one more id, doubling the table before it would be
// more than three quarters full.
func (t *flatTable) reserve() {
	if int(t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
}

// add stores the next id, for a key of hash h, in the empty slot s that
// ended the key's probe sequence, and returns the id.
func (t *flatTable) add(s int, h uint64) int32 {
	t.slots[s] = h&hashMask | uint64(t.n+1)
	t.n++
	return t.n - 1
}

// place adds key as the next id without looking for an equal key: for keys
// known to be distinct, such as the rows of a set. The table must have room.
func (t *flatTable) place(key []Value) {
	t.put(t.hash(key)&hashMask | uint64(t.n+1))
	t.n++
}

// put stores entry e in the first free slot from its home slot on.
func (t *flatTable) put(e uint64) {
	mask := len(t.slots) - 1
	s := int(e >> t.shift)
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = e
}

// grow doubles the table, re-placing every entry by its stored hash half.
func (t *flatTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for _, e := range old {
		if e != 0 {
			t.put(e)
		}
	}
}

// clone returns an independent copy.
func (t *flatTable) clone() *flatTable {
	c := *t
	c.slots = append([]uint64(nil), t.slots...)
	return &c
}

func rowOf(rows []int32, id int32) int {
	if rows == nil {
		return int(id)
	}
	return int(rows[id])
}

// equalAt reports whether key equals row i of cols.
func equalAt(key []Value, cols [][]Value, i int) bool {
	for k, col := range cols {
		if col[i] != key[k] {
			return false
		}
	}
	return true
}

// gatherRow writes row i of cols into key (len(key) == len(cols)).
func gatherRow(key []Value, cols [][]Value, i int) []Value {
	for k, col := range cols {
		key[k] = col[i]
	}
	return key
}

// gatherAt writes the values of row i of cols at positions proj into key.
func gatherAt(key []Value, cols [][]Value, proj []int, i int) []Value {
	for k, p := range proj {
		key[k] = cols[p][i]
	}
	return key
}

// keyStackCap is the widest key gathered on the stack.
const keyStackCap = KeyBufCap / 8

// keyScratch returns room for a key of n values: the caller's stack buffer
// when it fits, a heap slice otherwise.
func keyScratch(buf *[keyStackCap]Value, n int) []Value {
	if n <= keyStackCap {
		return buf[:n]
	}
	return make([]Value, n)
}

// denseSpanFactor bounds direct addressing: a key set over a single column
// whose values span less than denseSpanFactor × its row count is a bitmap
// indexed by value − min instead of a flatTable — at most half a byte per
// row, one pass for the bounds and no hashing or column compare per probe.
// GroupBy always hashes: an id per value measured no faster than its table.
const denseSpanFactor = 4

// denseSpan returns col's minimum and value span when the span is small
// enough for direct addressing.
func denseSpan(col []Value) (lo Value, span int, ok bool) {
	if len(col) == 0 {
		return 0, 0, false
	}
	lo, hi := col[0], col[0]
	for _, v := range col[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	d := uint64(hi) - uint64(lo) // exact: hi ≥ lo
	if d >= denseSpanFactor*uint64(len(col)) {
		return 0, 0, false
	}
	return lo, int(d) + 1, true
}

// keySet is the set of distinct keys of one relation at some positions,
// built for membership tests (SemijoinWith), distinct counts and Project.
// first lists the first row of each distinct key in order of appearance. A
// single column over a dense span is a bitmap; any other key is hashed.
type keySet struct {
	first []int32

	bits []uint64 // dense: bit v−lo is set for every value v present
	lo   Value

	table *flatTable // hashed: id e's key is row first[e] of cols
	cols  [][]Value
}

// distinctKeys collects the distinct keys of r at positions in one pass.
func (r *Relation) distinctKeys(positions []int) *keySet {
	cols := r.keyCols(positions)
	s := &keySet{}
	if len(cols) == 1 {
		if lo, span, ok := denseSpan(cols[0]); ok {
			s.bits, s.lo = make([]uint64, (span+63)/64), lo
			for i, v := range cols[0] {
				d := uint64(v - lo)
				if w, b := &s.bits[d/64], uint64(1)<<(d%64); *w&b == 0 {
					*w |= b
					s.first = append(s.first, int32(i))
				}
			}
			return s
		}
	}
	s.table, s.first = groupRows(cols, r.n, nil)
	s.cols = cols
	return s
}

// groupRows gives the distinct keys of rows 0 … n−1 of cols ids in order of
// appearance, returning the flatTable that holds them and the first row of
// each; groupOf, when non-nil, receives every row's id.
func groupRows(cols [][]Value, n int, groupOf []uint32) (*flatTable, []int32) {
	t := newFlatTable(0) // grows: the distinct count is unknown up front
	var first []int32
	var buf [keyStackCap]Value
	key := keyScratch(&buf, len(cols))
	id := int32(0)
	for i := 0; i < n; i++ {
		// A run of one value in a single key column — a clustered column —
		// costs one lookup.
		if len(cols) != 1 || i == 0 || cols[0][i] != cols[0][i-1] {
			gatherRow(key, cols, i)
			var added bool
			if id, added = t.insert(key, cols, first); added {
				first = append(first, int32(i))
			}
		}
		if groupOf != nil {
			groupOf[i] = uint32(id)
		}
	}
	return t, first
}

// hasAt reports whether the key at positions proj of row i of cols is in
// the set; scratch holds len(proj) values.
func (s *keySet) hasAt(cols [][]Value, proj []int, i int, scratch []Value) bool {
	if s.bits != nil {
		d := uint64(cols[proj[0]][i] - s.lo)
		return d < uint64(len(s.bits))*64 && s.bits[d/64]&(1<<(d%64)) != 0
	}
	return s.table.find(gatherAt(scratch, cols, proj, i), s.cols, s.first) >= 0
}

// keyCols returns r's columns at positions, in that order.
func (r *Relation) keyCols(positions []int) [][]Value {
	cols := make([][]Value, len(positions))
	for k, p := range positions {
		cols[k] = r.cols[p]
	}
	return cols
}
