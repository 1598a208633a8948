package relation

// KeyTable assigns dense int32 ids, in order of first appearance, to the
// distinct keys of a fixed width, for structures that keep no key columns to
// compare against (the dynamic index's tuple identities and bucket ids). It
// is a flatTable over key columns of its own: row e of cols is id e's key,
// appended when Intern or InternRows adds it. Ids are never removed or
// renumbered. Lookups are allocation-free for keys of ≤
// KeyBufCap/8 attributes, whose gathered key sits on the stack. A KeyTable
// is not synchronized.
type KeyTable struct {
	t    *flatTable
	cols [][]Value
}

// NewKeyTable returns an empty table for keys of the given width, sized for
// about sizeHint distinct keys.
func NewKeyTable(width, sizeHint int) *KeyTable {
	cols := make([][]Value, width)
	for k := range cols {
		cols[k] = make([]Value, 0, sizeHint)
	}
	return &KeyTable{t: newFlatTable(sizeHint), cols: cols}
}

// Lookup returns the id of the key made of src's values at positions proj
// (len(proj) must equal the table's width).
func (t *KeyTable) Lookup(src []Value, proj []int) (int32, bool) {
	var buf [keyStackCap]Value
	id := t.t.find(gatherKey(&buf, src, proj), t.cols, nil)
	return id, id >= 0
}

// Intern is Lookup that assigns the next id to a key it has not seen; added
// reports whether it did.
func (t *KeyTable) Intern(src []Value, proj []int) (id int32, added bool) {
	var buf [keyStackCap]Value
	key := gatherKey(&buf, src, proj)
	if id, added = t.t.insert(key, t.cols, nil); added {
		for k, v := range key {
			t.cols[k] = append(t.cols[k], v)
		}
	}
	return id, added
}

// InternRows is Intern for each row i of vals — a row-major array of rows of
// the given arity, len(ids) of them — in order, setting ids[i] to the id of
// the row's key at proj; a row whose ids[i] is −1 on entry is skipped. Keys
// are gathered and hashed a block of rows at a time (flatTable.hashBlock),
// so a bulk load's slot misses overlap.
func (t *KeyTable) InternRows(ids []int32, vals []Value, arity int, proj []int) {
	kcols := make([][]Value, len(proj))
	for k := range kcols {
		kcols[k] = make([]Value, blockRows)
	}
	var rows [blockRows]int
	var buf [blockRows]uint64
	for i := 0; i < len(ids); {
		n := 0
		for ; i < len(ids) && n < blockRows; i++ {
			if ids[i] != -1 {
				for k, p := range proj {
					kcols[k][n] = vals[i*arity+p]
				}
				rows[n] = i
				n++
			}
		}
		hs := buf[:n]
		t.t.hashBlock(hs, kcols, 0)
		for j, h := range hs {
			t.t.reserve()
			id, s := t.t.probeRow(h, kcols, j, t.cols, nil)
			if id < 0 {
				id = t.t.add(s, h)
				for k, col := range kcols {
					t.cols[k] = append(t.cols[k], col[j])
				}
			}
			ids[rows[j]] = id
		}
	}
}

// Len returns the number of ids held.
func (t *KeyTable) Len() int { return int(t.t.n) }
