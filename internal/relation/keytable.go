package relation

// KeyTable assigns dense int32 ids, in order of first appearance, to the
// distinct keys of a fixed width, for structures whose rows arrive one at a
// time and keep no columns to compare against (the dynamic index's tuple
// identities and bucket ids). Ids are never removed or renumbered.
//
// Keys of ≤ 2 attributes take a packed 64-bit form: a key of one attribute
// is the value itself (uint64(v) is a bijection on int64), and a key of two
// packs both values into one word when each fits 32 bits — true for every
// dictionary-encoded value until the dictionary exceeds 4Gi entries. The
// packing is invertible, so the first key that does not fit migrates the
// whole table to the canonical string encoding by decoding the keys it
// holds. Wider keys are strings from the start. Lookups are allocation-free
// in the packed form and for wide keys of ≤ KeyBufCap/8 attributes. A
// KeyTable is not synchronized.
type KeyTable struct {
	width  int
	n      int32
	packed map[uint64]int32 // non-nil while every key seen fits the packed form
	wide   map[string]int32
}

// NewKeyTable returns an empty table for keys of the given width, sized for
// about sizeHint distinct keys.
func NewKeyTable(width, sizeHint int) *KeyTable {
	t := &KeyTable{width: width}
	switch {
	case width == 0: // one key, the empty one: no map
	case width <= 2:
		t.packed = make(map[uint64]int32, sizeHint)
	default:
		t.wide = make(map[string]int32, sizeHint)
	}
	return t
}

// packable32 reports whether v fits the 32-bit half of a packed pair key.
func packable32(v Value) bool { return v >= 0 && v < 1<<32 }

// packPair packs two 32-bit-packable values into one uint64 key.
func packPair(a, b Value) uint64 { return uint64(a)<<32 | uint64(b) }

// packProjected packs src's values at proj (len 1 or 2) into a uint64 key.
func packProjected(src []Value, proj []int) (uint64, bool) {
	if len(proj) == 1 {
		return uint64(src[proj[0]]), true
	}
	a, b := src[proj[0]], src[proj[1]]
	if !packable32(a) || !packable32(b) {
		return 0, false
	}
	return packPair(a, b), true
}

// Lookup returns the id of the key made of src's values at positions proj
// (len(proj) must equal the table's width).
func (t *KeyTable) Lookup(src []Value, proj []int) (int32, bool) {
	if t.width == 0 {
		return 0, t.n > 0
	}
	if t.packed != nil {
		k, ok := packProjected(src, proj)
		if !ok {
			return 0, false // every stored key is packable; this one cannot be present
		}
		id, ok := t.packed[k]
		return id, ok
	}
	var buf [KeyBufCap]byte
	id, ok := t.wide[string(Tuple(src).AppendProjectedKey(KeyScratch(&buf, len(proj)), proj))]
	return id, ok
}

// Intern is Lookup that assigns the next id to a key it has not seen; added
// reports whether it did.
func (t *KeyTable) Intern(src []Value, proj []int) (id int32, added bool) {
	if t.width == 0 {
		added = t.n == 0
		t.n = 1
		return 0, added
	}
	if t.packed != nil {
		if k, ok := packProjected(src, proj); ok {
			if id, seen := t.packed[k]; seen {
				return id, false
			}
			t.packed[k] = t.n
			t.n++
			return t.n - 1, true
		}
		t.migrateWide()
	}
	var buf [KeyBufCap]byte
	b := Tuple(src).AppendProjectedKey(KeyScratch(&buf, len(proj)), proj)
	if id, seen := t.wide[string(b)]; seen {
		return id, false
	}
	t.wide[string(b)] = t.n
	t.n++
	return t.n - 1, true
}

// migrateWide re-encodes every packed key as its canonical string. Only a
// pair can fail to pack, so the keys held are pairs.
func (t *KeyTable) migrateWide() {
	t.wide = make(map[string]int32, len(t.packed))
	for k, id := range t.packed {
		t.wide[Tuple{Value(k >> 32), Value(uint32(k))}.Key()] = id
	}
	t.packed = nil
}
