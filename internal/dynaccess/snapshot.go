// Snapshot encoding of a dynamic index's persistable form: its base
// tables. Unlike the static index — whose prefix sums and groupings are
// themselves serialized — the dynamic structure is *rebuilt* from the base
// contents on restore (NewFromTables): the bulk loader costs about what
// reading the rows does, and the original arrival order (with tombstones)
// reproduces the live index's layouts exactly, so enumeration order survives
// the round trip byte-for-byte.
package dynaccess

import (
	"unsafe"

	"repro/internal/relation"
	"repro/internal/snapshot"
)

// MarshalBase appends the index's base tables to a snapshot section.
// Layout, per table (sorted by name):
//
//	str name | u64 arity | u64 numTuples | i64s flat values | i64s dead positions
func MarshalBase(s *snapshot.SectionWriter, idx *Index) {
	tables := idx.Tables()
	s.U64(uint64(len(tables)))
	for _, tb := range tables {
		s.Str(tb.Name)
		s.U64(uint64(tb.Arity))
		s.U64(uint64(tb.Rows))
		s.I64s(valuesAsInt64s(tb.Values))
		s.I64s(tb.Dead)
	}
}

// UnmarshalBase reads base tables written by MarshalBase. Values view the
// snapshot payload in place (no copy); NewFromTables copies what it keeps,
// but the returned tables themselves stay valid only while the snapshot
// mapping does.
func UnmarshalBase(r *snapshot.Reader) ([]BaseTable, error) {
	n := r.U64()
	if n > uint64(r.Remaining()/8) {
		return nil, snapshot.Corruptf("dynamic base: table count %d exceeds payload", n)
	}
	tables := make([]BaseTable, 0, n)
	for i := uint64(0); i < n; i++ {
		tb := BaseTable{Name: r.Str()}
		arity := r.U64()
		numTuples := r.U64()
		flat := r.I64s()
		dead := r.I64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if arity > uint64(len(flat)) && numTuples > 0 {
			return nil, snapshot.Corruptf("dynamic base %q: arity %d exceeds payload", tb.Name, arity)
		}
		if arity == 0 {
			if numTuples != 0 || len(flat) != 0 {
				return nil, snapshot.Corruptf("dynamic base %q: %d tuples of arity 0", tb.Name, numTuples)
			}
		} else if numTuples != uint64(len(flat))/arity || uint64(len(flat))%arity != 0 {
			return nil, snapshot.Corruptf("dynamic base %q: %d values for %d tuples of arity %d",
				tb.Name, len(flat), numTuples, arity)
		}
		tb.Arity, tb.Rows, tb.Values = int(arity), int(numTuples), int64sAsValues(flat)
		prev := int64(-1)
		for _, d := range dead {
			if d <= prev || d >= int64(numTuples) {
				return nil, snapshot.Corruptf("dynamic base %q: dead position %d (prev %d, %d tuples)",
					tb.Name, d, prev, numTuples)
			}
			prev = d
		}
		tb.Dead = dead
		tables = append(tables, tb)
	}
	return tables, nil
}

// int64sAsValues and valuesAsInt64s reinterpret a column between the file's
// type and the index's (Value is a defined int64, so the layouts are
// identical) — the same views relation's codec uses.
func int64sAsValues(v []int64) []relation.Value {
	return unsafe.Slice((*relation.Value)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

func valuesAsInt64s(v []relation.Value) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}
