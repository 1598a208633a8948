package access

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/synth"
)

// The static index keeps one aggregate array per slot and one per bucket,
// and only at inner nodes (package doc, "Representation"). These tests pin
// that layout by reflection over node, so an array added back to node —
// whatever its name — shows up here.

// nodeArrays returns the byte size of every integer array field of n, by
// field name. Fields of other types — the relation, the children, the
// output column views — are not index arrays and are skipped.
func nodeArrays(n *node) map[string]int64 {
	out := make(map[string]int64)
	v := reflect.ValueOf(n).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Slice {
			continue
		}
		switch elem := f.Type().Elem(); {
		case elem.Kind() == reflect.Slice && isIndexInt(elem.Elem()):
			var b int64
			for k := 0; k < f.Len(); k++ {
				b += int64(f.Index(k).Len()) * int64(elem.Elem().Size())
			}
			out[name] = b
		case isIndexInt(elem):
			out[name] = int64(f.Len()) * int64(elem.Size())
		}
	}
	return out
}

// isIndexInt reports whether t is an integer type the index stores (a
// relation.Value is column data, not index).
func isIndexInt(t reflect.Type) bool {
	if t == reflect.TypeOf(relation.Value(0)) {
		return false
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint32, reflect.Uint64:
		return true
	}
	return false
}

// indexArrayBytes is the index's own array memory: every node's integer
// arrays plus its grouping's group ids.
func indexArrayBytes(idx *Index) int64 {
	var b int64
	for _, n := range idx.nodes {
		for _, size := range nodeArrays(n) {
			b += size
		}
		b += 4 * int64(len(n.grouping.GroupOf))
	}
	return b
}

// layoutIndexes builds the fixed synthetic instance of the byte bound — a
// star whose center has three leaf children, so leaves hold three quarters
// of the tuples — and the same index restored from its snapshot.
func layoutIndexes(t *testing.T) (built, restored *Index) {
	t.Helper()
	db, q, err := synth.Star(synth.Config{Relations: 4, TuplesPerRelation: 2000, KeyDomain: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	built = buildIndex(t, db, q)
	restored, f := reopenIndex(t, marshalIndex(t, built))
	t.Cleanup(func() { f.Close() })
	return built, restored
}

func TestIndexLayoutHoldsNoDerivedArray(t *testing.T) {
	for _, gone := range []string{"weight", "maxW", "maxBucketLen"} {
		if _, ok := reflect.TypeOf(node{}).FieldByName(gone); ok {
			t.Errorf("node has a %s field: weights are differences of starts, and the baseline bounds belong to internal/sample", gone)
		}
	}
	for _, gone := range []string{"tupleIdx", "tupleOrd"} {
		if _, ok := reflect.TypeOf(node{}).FieldByName(gone); ok {
			t.Errorf("node has a %s field: a slot is a row of the bucket-ordered relation, and a row's ordinal is its slot minus its bucket's offset", gone)
		}
	}
	if _, ok := reflect.TypeOf(relation.Grouping{}).FieldByName("First"); ok {
		t.Errorf("relation.Grouping has a First field: a group's first row is its bucket's offset")
	}
	built, restored := layoutIndexes(t)
	for name, idx := range map[string]*Index{"built": built, "restored": restored} {
		leaves := 0
		for _, n := range idx.nodes {
			if !n.leaf() {
				continue
			}
			leaves++
			// int64 arrays are the aggregates (start indexes, totals,
			// weights); every leaf weight is 1, so a leaf holds none.
			v := reflect.ValueOf(n).Elem()
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Int64 &&
					f.Type().Elem() != reflect.TypeOf(relation.Value(0)) && f.Len() > 0 {
					t.Errorf("%s: leaf %s holds %d entries of %s", name, n.rel.Name(), f.Len(), v.Type().Field(i).Name)
				}
			}
		}
		if leaves != 3 {
			t.Fatalf("%s: fixture has %d leaves, want 3", name, leaves)
		}
	}
}

// TestIndexArrayBytesPerTuple bounds the index's array memory on a fixed
// instance. A leaf slot costs 4 B (its group id: a slot is a row, so there
// is no slot → row table and no ordinal) and a leaf bucket 4 B (its
// offset); the root's slots add an 8 B start index and a 4 B child bucket
// per child, 24 B in all. Putting any array back — a slot → row table, an
// ordinal, a weight or a start index per leaf slot, a total, a maximum or a
// first row per leaf bucket — adds at least 0.15 B per tuple here.
func TestIndexArrayBytesPerTuple(t *testing.T) {
	const bound = 9.75 // B per tuple; the layout measures 9.65
	built, restored := layoutIndexes(t)
	for name, idx := range map[string]*Index{"built": built, "restored": restored} {
		perTuple := float64(indexArrayBytes(idx)) / float64(idx.Tuples())
		t.Logf("%s: %.2f B of index arrays per tuple", name, perTuple)
		if perTuple > bound {
			for _, n := range idx.nodes {
				t.Logf("node %s (%d tuples): %v", n.rel.Name(), n.rel.Len(), nodeArrays(n))
			}
			t.Fatalf("%s: %.2f B of index arrays per tuple, bound %.2f", name, perTuple, bound)
		}
	}
}

// TestNodeBorrowsBaseColumns pins where a node's columns live. R and S
// join on every row and both are in bucket order, so no semijoin shrinks
// either atom and no gather reorders it: each node must read its base
// relation's own arrays (relation.Relation.Lend), not a copy. Over frozen
// bases — columns that alias a snapshot mapping, which the index must
// outlive — every node must hold a copy instead.
func TestNodeBorrowsBaseColumns(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := range relation.Value(8) {
		r.MustInsert(i, i/2)
		s.MustInsert(i/2, i)
	}
	q := query.MustCQ("Q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))

	frozen := relation.NewDatabase()
	for _, base := range []*relation.Relation{r, s} {
		cols := make([][]relation.Value, base.Arity())
		for a := range cols {
			cols[a] = append([]relation.Value(nil), base.Col(a)...)
		}
		f, err := relation.FromColumns(base.Name(), base.Schema(), cols)
		if err != nil {
			t.Fatal(err)
		}
		frozen.Add(f)
	}

	for _, c := range []struct {
		db     *relation.Database
		shared bool
	}{{db, true}, {frozen, false}} {
		idx := buildIndex(t, c.db, q)
		for _, n := range idx.nodes {
			// Instantiate names a node's relation Q#<atom>[<base>].
			rel := n.rel.Name()[strings.LastIndex(n.rel.Name(), "[")+1 : len(n.rel.Name())-1]
			base, err := c.db.Relation(rel)
			if err != nil {
				t.Fatal(err)
			}
			if n.rel.Len() != base.Len() {
				t.Fatalf("node %s holds %d of %s's %d rows: the fixture must not shrink", n.rel.Name(), n.rel.Len(), rel, base.Len())
			}
			for a := range base.Arity() {
				if got := &n.rel.Col(a)[0] == &base.Col(a)[0]; got != c.shared {
					t.Errorf("node %s column %d shares %s's array: %t, want %t (frozen base: %t)", n.rel.Name(), a, rel, got, c.shared, !c.shared)
				}
			}
		}
	}
}

// TestNodeSharesBaseIndex pins where a node's membership index lives. R
// and S are TestNodeBorrowsBaseColumns' pair, and T holds twice the c
// values S has, so a semijoin shrinks its atom. A node that reads its base's
// columns — unshrunk, in bucket order — must read the base's membership
// index too (relation.Relation.Lend), so no row of it was hashed; the
// shrunk node must own a fresh one. Over frozen bases no node shares a
// table.
func TestNodeSharesBaseIndex(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	tt := db.MustCreate("T", "c", "d")
	for i := range relation.Value(8) {
		r.MustInsert(i, i/2)
		s.MustInsert(i/2, i)
	}
	for i := range relation.Value(16) {
		tt.MustInsert(i, i)
	}
	q := query.MustCQ("Q", []string{"a", "b", "c", "d"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")),
		query.NewAtom("T", query.V("c"), query.V("d")))

	frozen := relation.NewDatabase()
	for _, base := range []*relation.Relation{r, s, tt} {
		cols := make([][]relation.Value, base.Arity())
		for a := range cols {
			cols[a] = append([]relation.Value(nil), base.Col(a)...)
		}
		f, err := relation.FromColumns(base.Name(), base.Schema(), cols)
		if err != nil {
			t.Fatal(err)
		}
		f.BuildIndex() // built, so that sharing it would show
		frozen.Add(f)
	}

	for _, c := range []struct {
		db     *relation.Database
		frozen bool
	}{{db, false}, {frozen, true}} {
		shared, shrunk := 0, 0
		for _, n := range buildIndex(t, c.db, q).nodes {
			rel := n.rel.Name()[strings.LastIndex(n.rel.Name(), "[")+1 : len(n.rel.Name())-1]
			base, err := c.db.Relation(rel)
			if err != nil {
				t.Fatal(err)
			}
			borrowed := &n.rel.Col(0)[0] == &base.Col(0)[0]
			if got := n.rel.SharesIndexWith(base); got != borrowed {
				t.Errorf("node %s shares %s's membership index: %t, reads its columns: %t (frozen base: %t)", n.rel.Name(), rel, got, borrowed, c.frozen)
			}
			if !n.rel.Indexed() {
				t.Errorf("node %s has no membership index", n.rel.Name())
			}
			if borrowed {
				shared++
			}
			if n.rel.Len() < base.Len() {
				shrunk++
			}
		}
		wantShared := 2 // R's and S's
		if c.frozen {
			wantShared = 0
		}
		if shared != wantShared || shrunk != 1 {
			t.Fatalf("frozen %t: %d nodes share their base's index and %d shrank, want %d and 1", c.frozen, shared, shrunk, wantShared)
		}
	}
}

// TestIndexSnapshotBytesPerTuple bounds the index's snapshot on the same
// instance. A format-version-2 file stores what the index keeps and
// nothing else: the columns (16 B per tuple here: two attributes of 8 B),
// the index arrays TestIndexArrayBytesPerTuple prices, and a few hundred
// bytes of names and framing. Writing back a derived section — a weight
// per slot, a slot → row table — adds at least 3 B per tuple here.
func TestIndexSnapshotBytesPerTuple(t *testing.T) {
	const bound = 25.85 // B per tuple; the file measures 25.72
	built, _ := layoutIndexes(t)
	perTuple := float64(len(marshalIndex(t, built))) / float64(built.Tuples())
	t.Logf("%.2f B of snapshot per tuple", perTuple)
	if perTuple > bound {
		t.Fatalf("%.2f B of snapshot per tuple, bound %.2f", perTuple, bound)
	}
}
