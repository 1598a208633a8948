package relation

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"unsafe"
)

// flatTable is the one hash table of this package: the membership index,
// the key lookups of GroupBy and the key sets of SemijoinWith and Project
// that are not direct-addressed (see denseSpan) and KeyTable, which keeps
// its keys' columns itself, are all instances of it. It maps a key — a
// row's values at some columns — to a dense int32 id, and it stores no
// keys: the key of id e is row rowOf(e) of the key columns the caller
// passes with every call (rowOf(e) = rows[e], or e itself when rows is
// nil). A lookup that meets a matching hash compares the probe against
// those columns, so no key is ever encoded, and the table is one
// pointer-free []uint64 the garbage collector never scans. The Dict interns strings through the same slots, growth and
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
//
// Keys that sit in columns are hashed a block of blockRows rows at a time
// (hashBlock): one column at a time over the block, then a prefetch of every
// row's home slot, so the block's slot misses overlap instead of each row
// paying for its own before the next starts. Every hashed per-row loop of
// preprocessing — GroupBy, the key sets, the semijoin probes, the membership
// index build and Grouping.LookupRows — runs through it; only the single-key
// calls (Insert, Position, PositionProjected) hash one gathered key (hash).
//
// A membership index may be shared: Lend hands a base relation's table to
// every relation that borrows the base's columns, and lent marks it. Such a
// table is read-only from then on — Relation.Insert, the one writer of a
// membership index, copies it first, on the base and on a borrower alike —
// so the mark lives on the table, where every relation holding it sees it.
// It is atomic because parallel Opens lend one base at once, and because of
// it a flatTable is never copied by value (see clone).
type flatTable struct {
	slots []uint64 // hash&^(1<<32−1) | id+1 per occupied slot; 0 = empty
	shift uint     // 64 − log2(len(slots)): a hash's top bits pick its home slot
	n     int32    // ids held: 0 … n−1
	seed  uint64
	lent  atomic.Bool // shared by Lend: copy before writing
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

// blockRows is the number of rows hashBlock hashes at once: its hashes
// live in one stack array, and its prefetches are all in flight before the
// first of the block's probes reads a slot.
const blockRows = 64

// hashBlock sets hs[j] to the hash of row lo+j of cols, for every j <
// len(hs) ≤ blockRows — exactly hash's value for the gathered row — folding
// one column at a time into the block, and then prefetches every row's home
// slot.
func (t *flatTable) hashBlock(hs []uint64, cols [][]Value, lo int) {
	for j := range hs {
		hs[j] = t.seed
	}
	for _, col := range cols {
		for j, v := range col[lo : lo+len(hs)] {
			hs[j] = mix64(hs[j] ^ uint64(v))
		}
	}
	for _, h := range hs {
		Prefetch(unsafe.Pointer(&t.slots[h>>t.shift]))
	}
}

// lookupBlock sets ids[j] to the id of the key at row lo+j of kcols, or −1
// when it is absent, for every j < len(ids) ≤ blockRows: one hashBlock, then
// one probe per row.
func (t *flatTable) lookupBlock(ids []int32, kcols [][]Value, lo int, cols [][]Value, rows []int32) {
	var buf [blockRows]uint64
	hs := buf[:len(ids)]
	t.hashBlock(hs, kcols, lo)
	for j, h := range hs {
		ids[j], _ = t.probeRow(h, kcols, lo+j, cols, rows)
	}
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

// probeRow is probe for the key at row i of kcols, of hash h: it compares
// columns with columns and gathers nothing.
func (t *flatTable) probeRow(h uint64, kcols [][]Value, i int, cols [][]Value, rows []int32) (int32, int) {
	mask := len(t.slots) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			return -1, s
		}
		if (e^h)&hashMask == 0 {
			id := int32(uint32(e)) - 1
			if equalRows(kcols, i, cols, rowOf(rows, id)) {
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

// clone returns an independent copy, not lent.
func (t *flatTable) clone() *flatTable {
	return &flatTable{slots: append([]uint64(nil), t.slots...), shift: t.shift, n: t.n, seed: t.seed}
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

// equalRows reports whether row i of a equals row j of b (len(a) ==
// len(b)).
func equalRows(a [][]Value, i int, b [][]Value, j int) bool {
	for k, col := range a {
		if col[i] != b[k][j] {
			return false
		}
	}
	return true
}

// keyStackCap is the widest key gathered on the stack.
const keyStackCap = KeyBufCap / 8

// gatherKey returns src's values at proj, in the caller's stack buffer when
// they fit, in a heap slice otherwise.
func gatherKey(buf *[keyStackCap]Value, src []Value, proj []int) []Value {
	key := buf[:0]
	if len(proj) > keyStackCap {
		key = make([]Value, 0, len(proj))
	}
	for _, p := range proj {
		key = append(key, src[p])
	}
	return key
}

// Direct addressing: a key set over a single column whose values span
// little is a bitmap indexed by value − min instead of a flatTable — one
// pass for the bounds, then one bit test per probe with no hashing and no
// column compare. The span is little when it is below denseSpanFactor × the
// row count (at most half a byte per row), or when the whole bitmap is at
// most denseMaxBits (128 KiB, cache-sized whatever the row count: a few
// dozen keys spread over a few hundred values still cost a bit test, not a
// hash). GroupBy and LookupRows direct-address a single key column too, an
// int32 group id per value, but only under the row-bounded half of the
// rule (a floor of 0 in denseSpan): denseMaxBits ids would be 4 MiB for a
// tiny relation. On 300 k rows in random order, GroupBy took 0.6 ms that
// way against 6.4–7.2 ms hashed for 500 groups, and 2.3–2.6 against
// 11–13 ms for 75 k groups (2-vCPU Xeon).
const (
	denseSpanFactor = 4
	denseMaxBits    = 1 << 20
)

// denseSpan returns col's minimum and value span when the span is small
// enough for direct addressing: below denseSpanFactor × len(col), or below
// floor whatever the row count (denseMaxBits for a bitmap, 0 for group ids).
func denseSpan(col []Value, floor uint64) (lo Value, span int, ok bool) {
	if len(col) == 0 {
		return 0, 0, false
	}
	lo, hi := col[0], col[0]
	for _, v := range col[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	d := uint64(hi) - uint64(lo) // exact: hi ≥ lo
	if d >= denseSpanFactor*uint64(len(col)) && d >= floor {
		return 0, 0, false
	}
	return lo, int(d) + 1, true
}

// keySet is the direct-addressed set of the values of one column whose span
// is dense (denseSpan): bit v−lo is set for every value v added. It serves
// SemijoinWith's membership test and the distinct keys of Project; any
// other key set is grouped through a flatTable (groupRows).
type keySet struct {
	bits []uint64
	lo   Value
}

// denseKeys returns an empty keySet over col's span, or nil when col's span
// is not dense.
func denseKeys(col []Value) *keySet {
	lo, span, ok := denseSpan(col, denseMaxBits)
	if !ok {
		return nil
	}
	return &keySet{bits: make([]uint64, (span+63)/64), lo: lo}
}

// add adds v, which must lie in the set's span, and reports whether it was
// absent.
func (s *keySet) add(v Value) bool {
	d := uint64(v - s.lo)
	w, b := &s.bits[d/64], uint64(1)<<(d%64)
	if *w&b != 0 {
		return false
	}
	*w |= b
	return true
}

// has reports whether v is in the set; v may lie anywhere.
func (s *keySet) has(v Value) bool {
	d := uint64(v - s.lo)
	return d < uint64(len(s.bits))*64 && s.bits[d/64]&(1<<(d%64)) != 0
}

// distinctKeys returns the first row of each distinct key of r at
// positions, in order of appearance: a keySet over a dense single column, a
// flatTable otherwise.
func (r *Relation) distinctKeys(positions []int) []int32 {
	cols := r.keyCols(positions)
	if len(cols) == 1 {
		if s := denseKeys(cols[0]); s != nil {
			var first []int32
			for i, v := range cols[0] {
				if s.add(v) {
					first = append(first, int32(i))
				}
			}
			return first
		}
	}
	_, first := groupRows(cols, r.n, nil, 0)
	return first
}

// groupRows gives the distinct keys of rows 0 … n−1 of cols ids in order of
// appearance, a block of rows at a time, returning the flatTable that holds
// them and the first row of each; groupOf, when non-nil, receives every
// row's id. The table and first start sized for hint ids and grow past it.
func groupRows(cols [][]Value, n int, groupOf []uint32, hint int) (*flatTable, []int32) {
	t := newFlatTable(hint)
	first := make([]int32, 0, hint)
	var buf [blockRows]uint64
	id := int32(0)
	for lo := 0; lo < n; lo += blockRows {
		hs := buf[:min(blockRows, n-lo)]
		t.hashBlock(hs, cols, lo)
		for j, h := range hs {
			i := lo + j
			// A run of one value in a single key column — a clustered
			// column — costs one lookup.
			if len(cols) != 1 || i == 0 || cols[0][i] != cols[0][i-1] {
				t.reserve()
				var s int
				if id, s = t.probeRow(h, cols, i, cols, first); id < 0 {
					id = t.add(s, h)
					first = append(first, int32(i))
				}
			}
			if groupOf != nil {
				groupOf[i] = uint32(id)
			}
		}
	}
	return t, first
}

// keyCols returns r's columns at positions, in that order.
func (r *Relation) keyCols(positions []int) [][]Value {
	cols := make([][]Value, len(positions))
	for k, p := range positions {
		cols[k] = r.cols[p]
	}
	return cols
}
