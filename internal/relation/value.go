// Package relation provides the relational substrate used by the whole
// library: dictionary-encoded values, tuples, schemas, relations, databases,
// and the linear-time operators (selection, projection, semijoin) required by
// the enumeration algorithms.
//
// Storage is column-major (see Relation): one contiguous []Value per
// attribute, with dense group IDs (see GroupBy) replacing string-keyed hash
// maps on every hot path. Every key lookup of this package — the
// membership index, GroupBy, the key sets of SemijoinWith and Project, and
// KeyTable, the dynamic index's id table, over key columns of its own —
// goes through one flat open-addressing table (flatTable) that compares a
// probe against the columns instead of encoding it, or, over a single
// column with a dense span, through a bitmap (a key set) or an array of
// group ids indexed by value (GroupBy). The string dictionary
// (Dict) interns through the same table, confirming a hash match against its
// value table instead of the columns, so interning a CSV cell touches no Go
// map either. Rendering a value reads the
// dictionary without a lock (two atomic loads, then the string), so a
// server encoding answers never contends with an interning writer; the Dict
// type comment has the publication order. Prefetch, the one cache-prefetch
// primitive of the codebase, lives here too, for the index probes and the
// answer encoders alike. No per-tuple path of the package keeps a Go map,
// and every string key in the codebase comes from the single canonical
// encoder in this file.
//
// Every relation is a set. Insert enforces that against the full-tuple
// membership index; FromColumns and AdoptColumns trust their caller; and
// the operators that only drop or permute rows of a set (SemijoinWith,
// SortTuples, the select-and-copy of reduce.Instantiate) neither check nor
// maintain the index — it is absent, and whoever keeps the result builds
// it once (BuildIndex; the access index does so for every node relation it
// probes, and a probe of an absent index panics) — and Lend shares the
// base's own index with a relation that keeps every row. The Relation type comment has
// the details.
//
// The paper's computation model is the DRAM variant of the RAM model with
// uniform cost measure, which permits constant-time lookup tables of
// polynomial size. Flat hash tables and bitmaps (and, after preprocessing,
// plain arrays indexed by group ID) play that role here.
package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Value is a single attribute value. All values are 64-bit integers; string
// data is interned through a Dict, so that tuples are compact and hashing is
// cheap. This mirrors dictionary encoding in column stores.
type Value int64

// Tuple is an ordered list of values, positionally aligned with a schema.
type Tuple []Value

// Clone returns a copy of the tuple that does not alias t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether two tuples have the same length and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// appendValue appends the canonical fixed-width encoding of v (8 bytes,
// big-endian) to dst. This is THE tuple-key encoder of the codebase: every
// string-keyed map over tuples — the naive evaluator's join indexes, the
// samplers' seen-sets — goes through this function via Key / ProjectKey /
// AppendKey. Do not re-implement the encoding elsewhere; distinct tuples of
// equal arity must keep producing distinct keys, and mixed encoders would
// silently break cross-package key comparisons.
func appendValue(dst []byte, v Value) []byte {
	u := uint64(v)
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// AppendKey appends the canonical key encoding of t to dst and returns the
// extended slice. Passing a stack buffer's [:0] slice keeps hot lookups
// allocation-free: m[string(b)] map reads do not copy the key.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = appendValue(dst, v)
	}
	return dst
}

// Key encodes the tuple as a string usable as a hash-map key. The encoding is
// fixed-width (8 bytes per value, big-endian) so distinct tuples of the same
// arity always produce distinct keys.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, 8*len(t))))
}

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(positions []int) Tuple {
	p := make(Tuple, len(positions))
	for i, pos := range positions {
		p[i] = t[pos]
	}
	return p
}

// ProjectKey is Project followed by Key without allocating the intermediate
// tuple.
func (t Tuple) ProjectKey(positions []int) string {
	dst := make([]byte, 0, 8*len(positions))
	for _, pos := range positions {
		dst = appendValue(dst, t[pos])
	}
	return string(dst)
}

// KeyBufCap is eight times the widest key gathered on the stack: lookups of
// keys of up to KeyBufCap/8 attributes (KeyTable, PositionProjected) never
// touch the heap. The constant is exported so other packages gathering probe
// keys (dynaccess) can size their stack buffers to match.
const KeyBufCap = 256

// Dict interns strings as Values. It is safe for concurrent use. Value 0 is
// reserved for the empty string so that zero values decode cleanly.
//
// byValue[v] is the string of Value v; it is all that rendering a value
// (String, StringInterned) reads. Interning goes the other way through a
// flatTable whose id e is Value e: a slot holds the top half of the
// string's hash above e+1, and a hash match is confirmed against
// byValue[e], so the table stores no strings and the garbage collector
// never scans it. The hash is seeded per dictionary, because interned
// strings come from outside (CSV cells over /admin/load, update tuples).
//
// Reads take no lock. byValue is append-only and written under mu, and two
// values publish it to the readers: strs, the first element of its backing
// array, and n, the count. A new value is published in this order: its
// string is written into the array, the array is stored in strs, and only
// then is n stored. String, StringInterned and Len load n first and strs
// second, so a reader that sees count n holds an array of at least n
// strings whose first n are written and never change: a value below n
// renders its own string, whatever the writer does meanwhile. An array an
// append has moved away from stays valid for the readers still holding it.
// The writer side — Intern, InternCells, Lookup, the table and MarshalDict
// — keeps mu.
//
// InternCells interns a batch of cells — a CSV load's — a block of
// blockRows at a time: it hashes the block without the lock, then takes the
// write lock once, prefetches the block's home slots, interns the block in
// order and publishes once, so a load never holds the lock for longer than
// a block and update handlers that intern meanwhile interleave with it. Its
// new strings are carved from arena chunks (arena): a chunk is appended to
// and never written again below its length, so a string over it stays
// valid and unchanged, and a block of new values costs no allocation per
// value. Intern keeps the string it is given, and InternBytes allocates
// one per new value.
//
// A dictionary restored from a snapshot (NewDictFromStrings) defers its
// table: rendering needs only byValue, so a cold start pays nothing; the
// table is built under the lock on the first Lookup or Intern.
type Dict struct {
	mu      sync.RWMutex
	table   *flatTable // nil until built for restored dictionaries
	seed    maphash.Seed
	byValue []string
	arena   []byte // the chunk InternCells carves from; written only past len

	strs atomic.Pointer[string] // &byValue[0], as last published
	n    atomic.Int32           // len(byValue), stored last
}

// maxDictLen bounds a dictionary: a table slot holds a value as a 32-bit
// id+1, and flatTable counts ids in an int32.
const maxDictLen = math.MaxInt32

// NewDict returns an empty dictionary with "" pre-interned as 0.
func NewDict() *Dict {
	d := &Dict{seed: maphash.MakeSeed(), byValue: []string{""}}
	d.buildLocked()
	d.publishLocked()
	return d
}

// NewDictFromStrings restores a dictionary from its value table: byValue[v]
// is the string of Value v. The slice is adopted, not copied. The table must
// start with the reserved empty string.
func NewDictFromStrings(byValue []string) (*Dict, error) {
	if len(byValue) == 0 || byValue[0] != "" {
		return nil, fmt.Errorf("relation: dictionary table must start with the reserved empty string")
	}
	if len(byValue) > maxDictLen {
		return nil, fmt.Errorf("relation: dictionary of %d values exceeds the limit of %d", len(byValue), maxDictLen)
	}
	d := &Dict{seed: maphash.MakeSeed(), byValue: byValue}
	d.publishLocked()
	return d, nil
}

// publishLocked makes byValue visible to the lock-free readers: the array
// first, then the count. It stores the array's first element, not a slice
// header, so a growth of byValue allocates nothing here. Caller holds d.mu
// for write, or owns d outright.
func (d *Dict) publishLocked() {
	d.strs.Store(unsafe.SliceData(d.byValue))
	d.n.Store(int32(len(d.byValue)))
}

// buildLocked builds the deferred table. Caller holds d.mu for write, or
// owns d outright.
func (d *Dict) buildLocked() {
	if d.table != nil {
		return
	}
	t := newFlatTable(len(d.byValue))
	for i, s := range d.byValue {
		t.put(maphash.String(d.seed, s)&hashMask | uint64(i+1))
	}
	t.n = int32(len(d.byValue))
	d.table = t
}

// Intern returns the Value for s, assigning a fresh one if needed.
func (d *Dict) Intern(s string) Value {
	return intern(d, s, maphash.String(d.seed, s))
}

// InternBytes is Intern for a byte slice. It allocates only when b is new
// to the dictionary, and never retains b.
func (d *Dict) InternBytes(b []byte) Value {
	return intern(d, b, maphash.Bytes(d.seed, b))
}

// intern returns s's Value, adding s when it is absent; h is s's hash.
func intern[S string | []byte](d *Dict, s S, h uint64) Value {
	d.mu.RLock()
	v := Value(-1)
	if d.table != nil {
		v, _ = find(d, s, h)
	}
	d.mu.RUnlock()
	if v >= 0 {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildLocked()
	d.table.reserve()
	v, slot := find(d, s, h)
	if v >= 0 {
		return v
	}
	if len(d.byValue) >= maxDictLen {
		panic(fmt.Sprintf("relation: dictionary is full (%d values)", maxDictLen))
	}
	d.byValue = append(d.byValue, string(s))
	d.publishLocked()
	return Value(d.table.add(slot, h))
}

// InternCells sets out[i] to the Value of cell i, buf[offs[i]:offs[i+1]],
// for every i < len(out); len(offs) must be len(out)+1. The Values are the
// ones Intern would return for the cells one at a time, in order. It takes
// the write lock once per block of blockRows cells (see Dict), and it
// allocates only arena chunks and the growth of the value table and the
// hash table: cells the dictionary holds already cost nothing. buf is not
// retained.
func (d *Dict) InternCells(buf []byte, offs []int, out []Value) {
	var hs [blockRows]uint64
	for lo := 0; lo < len(out); lo += blockRows {
		block := out[lo:min(lo+blockRows, len(out))]
		bo := offs[lo : lo+len(block)+1]
		for j := range block {
			hs[j] = maphash.Bytes(d.seed, buf[bo[j]:bo[j+1]])
		}
		d.internBlock(buf, bo, hs[:len(block)], block)
	}
}

// internBlock interns the cells of one InternCells block, of hashes hs,
// under one write lock, and publishes once.
func (d *Dict) internBlock(buf []byte, offs []int, hs []uint64, out []Value) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildLocked()
	t := d.table
	for _, h := range hs {
		Prefetch(unsafe.Pointer(&t.slots[h>>t.shift]))
	}
	for j, h := range hs {
		cell := buf[offs[j]:offs[j+1]]
		t.reserve()
		v, slot := find(d, cell, h)
		if v < 0 {
			if len(d.byValue) >= maxDictLen {
				panic(fmt.Sprintf("relation: dictionary is full (%d values)", maxDictLen))
			}
			d.byValue = append(d.byValue, d.carveLocked(cell))
			v = Value(t.add(slot, h))
		}
		out[j] = v
	}
	d.publishLocked()
}

// Arena chunks double from arenaMinChunk up to arenaChunk, so a small
// dictionary takes a small arena and a large one a chunk per arenaChunk
// bytes of strings. A cell longer than arenaChunk/16 gets an allocation of
// its own, so a chunk's unused tail stays small.
const (
	arenaMinChunk = 256
	arenaChunk    = 64 << 10
)

// carveLocked returns b as a string over the arena, starting a chunk when
// the current one is full. Caller holds d.mu for write.
func (d *Dict) carveLocked(b []byte) string {
	switch {
	case len(b) == 0:
		return ""
	case len(b) > arenaChunk/16:
		return string(b)
	case cap(d.arena)-len(d.arena) < len(b):
		d.arena = make([]byte, 0, min(arenaChunk, max(2*cap(d.arena), arenaMinChunk, len(b))))
	}
	i := len(d.arena)
	d.arena = append(d.arena, b...)
	return unsafe.String(&d.arena[i], len(b))
}

// find returns s's Value, or -1 and the empty slot that ends s's probe
// sequence. Caller holds d.mu and d.table is built.
func find[S string | []byte](d *Dict, s S, h uint64) (Value, int) {
	t := d.table
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return -1, i
		}
		if (e^h)&hashMask == 0 {
			if v := Value(uint32(e)) - 1; d.byValue[v] == string(s) {
				return v, i
			}
		}
	}
}

// Lookup returns the Value for s without interning.
func (d *Dict) Lookup(s string) (Value, bool) {
	h := maphash.String(d.seed, s)
	d.mu.RLock()
	if d.table != nil {
		v, _ := find(d, s, h)
		d.mu.RUnlock()
		return v, v >= 0
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildLocked()
	v, _ := find(d, s, h)
	return v, v >= 0
}

// String returns the string for an interned value, or the stable numeric
// rendering "#N" for a value outside the dictionary. The bounds check
// compares in the Value domain: converting first (int(v) < len) truncates
// huge values on 32-bit platforms, so a never-interned value like 2^32+3
// would collide with real intern slot 3 and render a foreign string — worse
// under concurrent growth, where the collision target shifts as other
// goroutines intern. A value that is out of range at call time always
// renders "#N", never another slot's string.
func (d *Dict) String(v Value) string {
	if s, ok := d.StringInterned(v); ok {
		return s
	}
	return fmt.Sprintf("#%d", int64(v))
}

// StringInterned returns the interned string for v, or ok=false for a
// value outside the dictionary. Unlike String it never formats: callers on
// allocation-free paths render the out-of-dictionary "#N" form themselves
// (strconv.AppendInt into their own buffer). It takes no lock: the count
// is loaded before the array (see Dict).
func (d *Dict) StringInterned(v Value) (string, bool) {
	if n := d.n.Load(); v >= 0 && v < Value(n) {
		// v < n ≤ the length of the array strs points into (see Dict).
		return *(*string)(unsafe.Add(unsafe.Pointer(d.strs.Load()), uintptr(v)*unsafe.Sizeof(""))), true
	}
	return "", false
}

// Len reports the number of interned strings.
func (d *Dict) Len() int { return int(d.n.Load()) }
