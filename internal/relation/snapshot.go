// Snapshot encoding of the relational substrate: dictionaries and relations.
// Numeric columns are the bulk of an instance and restore zero-copy (the
// []Value views alias the snapshot mapping via FromColumns); strings —
// dictionary entries, names, schemas — are validated and copied.
package relation

import (
	"unsafe"

	"repro/internal/snapshot"
)

// valuesAsInt64s reinterprets a column for raw serialization (Value is a
// defined int64, so the memory layouts are identical).
func valuesAsInt64s(v []Value) []int64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&v[0])), len(v))
}

// int64sAsValues is the inverse view, used on restored file regions.
func int64sAsValues(v []int64) []Value {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*Value)(unsafe.Pointer(&v[0])), len(v))
}

// RestoreGrouping rebuilds a Grouping from its persisted per-tuple group
// IDs. The key lookup is not restored (LookupRows reports a miss — it is a
// build-time facility; probes only read GroupOf). Every group in
// [0, numGroups) must be inhabited, as GroupBy guarantees for the groupings
// it produced.
func RestoreGrouping(groupOf []uint32, numGroups int, width int) (*Grouping, error) {
	if numGroups < 0 || numGroups > len(groupOf) {
		return nil, snapshot.Corruptf("grouping: %d groups over %d tuples", numGroups, len(groupOf))
	}
	seen := make([]bool, numGroups)
	left := numGroups
	for i, g := range groupOf {
		if g >= uint32(numGroups) {
			return nil, snapshot.Corruptf("grouping: tuple %d has group %d of %d", i, g, numGroups)
		}
		if !seen[g] {
			seen[g] = true
			left--
		}
	}
	if left > 0 {
		return nil, snapshot.Corruptf("grouping: %d of %d groups are empty", left, numGroups)
	}
	return &Grouping{width: width, numGroups: numGroups, GroupOf: groupOf}, nil
}

// MarshalDict appends the dictionary's value table.
func MarshalDict(s *snapshot.SectionWriter, d *Dict) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s.U64(uint64(len(d.byValue)))
	for _, str := range d.byValue {
		s.Str(str)
	}
}

// UnmarshalDict restores a dictionary (reverse map deferred; see
// NewDictFromStrings).
func UnmarshalDict(r *snapshot.Reader) (*Dict, error) {
	n := r.U64()
	// Each entry costs at least its 8-byte length prefix, so a count beyond
	// Remaining()/8 is structurally impossible: reject before allocating.
	if n > uint64(r.Remaining()/8) {
		return nil, snapshot.Corruptf("dictionary count %d exceeds payload", n)
	}
	byValue := make([]string, n)
	for i := range byValue {
		byValue[i] = r.Str()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	d, err := NewDictFromStrings(byValue)
	if err != nil {
		return nil, snapshot.Corruptf("%v", err)
	}
	return d, nil
}

// MarshalRelation appends the relation: name, schema, and one raw column per
// attribute. The membership index is not persisted: a restored relation
// has none until BuildIndex (the access index calls it for its nodes on
// the first inverted access).
func MarshalRelation(s *snapshot.SectionWriter, r *Relation) {
	s.Str(r.name)
	s.U64(uint64(len(r.schema)))
	for _, a := range r.schema {
		s.Str(a)
	}
	s.U64(uint64(r.n))
	for _, col := range r.cols {
		s.I64s(valuesAsInt64s(col))
	}
}

// UnmarshalRelation restores a relation whose columns view the snapshot
// region in place (immutable, with no membership index; see FromColumns).
func UnmarshalRelation(r *snapshot.Reader) (*Relation, error) {
	name := r.Str()
	arity := r.U64()
	if arity > uint64(r.Remaining()/8) {
		return nil, snapshot.Corruptf("relation %s: arity %d exceeds payload", name, arity)
	}
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = r.Str()
	}
	n := r.U64()
	cols := make([][]Value, arity)
	for a := range cols {
		col := int64sAsValues(r.I64s())
		if uint64(len(col)) != n && r.Err() == nil {
			return nil, snapshot.Corruptf("relation %s: column %d has %d rows, want %d", name, a, len(col), n)
		}
		cols[a] = col
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, snapshot.Corruptf("relation %s: %v", name, err)
	}
	rel, err := FromColumns(name, schema, cols)
	if err != nil {
		return nil, snapshot.Corruptf("%v", err)
	}
	// Arity-0 relations carry no columns, so n must be restored explicitly
	// (0 or 1 are the only coherent values: a nullary relation is a bool).
	if arity == 0 {
		if n > 1 {
			return nil, snapshot.Corruptf("relation %s: nullary relation with %d tuples", name, n)
		}
		rel.n = int(n)
	}
	return rel, nil
}
