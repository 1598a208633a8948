package dynaccess

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/snapshot"
)

// sweep reads the full enumeration of idx as a flat value slice.
func sweep(t *testing.T, idx *Index) []relation.Value {
	t.Helper()
	n := idx.Count()
	out := make([]relation.Value, 0, n*int64(len(idx.Head())))
	for j := int64(0); j < n; j++ {
		tup, err := idx.Access(j)
		if err != nil {
			t.Fatalf("Access(%d): %v", j, err)
		}
		out = append(out, tup...)
	}
	return out
}

func sweepsEqual(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomStream applies k random inserts/deletes drawn from a small value
// domain (so revives and duplicate no-ops actually happen) to each index.
func randomStream(t *testing.T, rng *rand.Rand, k int, idxs ...*Index) {
	t.Helper()
	rels := []string{"R", "S"}
	for i := 0; i < k; i++ {
		rel := rels[rng.Intn(len(rels))]
		tup := relation.Tuple{relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6))}
		del := rng.Intn(3) == 0
		for _, idx := range idxs {
			var err error
			if del {
				_, err = idx.Delete(rel, tup.Clone())
			} else {
				_, err = idx.Insert(rel, tup.Clone())
			}
			if err != nil {
				t.Fatalf("op %d on %s%v: %v", i, rel, tup, err)
			}
		}
	}
}

// TestRebuildPreservesEnumerationOrder pins the identity the compactor and
// the crash-recovery path both rest on: a rebuilt index enumerates
// byte-identically to its source — not just immediately, but after further
// updates, because tombstones (and hence future revive positions) survive
// the rebuild.
func TestRebuildPreservesEnumerationOrder(t *testing.T) {
	db := freshDB()
	src, err := New(db, chainQ())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	randomStream(t, rng, 300, src)

	re, err := src.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if src.Count() != re.Count() {
		t.Fatalf("Count: src %d, rebuilt %d", src.Count(), re.Count())
	}
	if !sweepsEqual(sweep(t, src), sweep(t, re)) {
		t.Fatal("rebuilt index enumerates differently")
	}

	// The acid test: identical further updates (the domain is small, so
	// deletes and revives of pre-rebuild tuples occur) must keep the two
	// in lockstep. This fails if the rebuild dropped tombstones: a
	// revived tuple would reappear at a different position.
	randomStream(t, rng, 300, src, re)
	if !sweepsEqual(sweep(t, src), sweep(t, re)) {
		t.Fatal("indexes diverged after post-rebuild updates")
	}
	for j := int64(0); j < src.Count(); j++ {
		tup, _ := src.Access(j)
		if inv, ok := re.InvertedAccess(tup); !ok || inv != j {
			t.Fatalf("InvertedAccess(%v) = %d,%v, want %d", tup, inv, ok, j)
		}
	}
}

// TestSnapshotBaseRoundTrip drives MarshalBase → container → UnmarshalBase
// → NewFromTables and checks the restored index is the live one.
func TestSnapshotBaseRoundTrip(t *testing.T) {
	db := freshDB()
	src, err := New(db, chainQ())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randomStream(t, rng, 200, src)

	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	s := w.Section(99)
	MarshalBase(s, src)
	s.Close()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	f, err := snapshot.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables, err := UnmarshalBase(f.Sections()[0].Reader())
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewFromTables(chainQ(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if !sweepsEqual(sweep(t, src), sweep(t, re)) {
		t.Fatal("snapshot round trip changed enumeration")
	}
	randomStream(t, rng, 200, src, re)
	if !sweepsEqual(sweep(t, src), sweep(t, re)) {
		t.Fatal("restored index diverged under further updates")
	}
}

// A fresh New over a non-empty database must also round-trip: the bulk
// load and the base recording see the same rows.
func TestTablesCoverBulkLoadedRows(t *testing.T) {
	db := freshDB()
	r, _ := db.Relation("R")
	s, _ := db.Relation("S")
	for i := 0; i < 5; i++ {
		r.Insert(relation.Tuple{relation.Value(i), relation.Value(i + 1)})
		s.Insert(relation.Tuple{relation.Value(i + 1), relation.Value(i + 2)})
	}
	src, err := New(db, chainQ())
	if err != nil {
		t.Fatal(err)
	}
	re, err := src.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if src.Count() == 0 {
		t.Fatal("test is vacuous: no answers")
	}
	if !sweepsEqual(sweep(t, src), sweep(t, re)) {
		t.Fatal("rebuild of bulk-loaded index differs")
	}
}

func TestValidateUpdate(t *testing.T) {
	db := freshDB()
	idx, err := New(db, chainQ())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.ValidateUpdate("R", 2); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
	if err := idx.ValidateUpdate("Nope", 2); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := idx.ValidateUpdate("R", 3); err == nil {
		t.Fatal("wrong arity accepted")
	}
	// Validation must not mutate: the index still works and is empty.
	if idx.Count() != 0 {
		t.Fatal("ValidateUpdate changed state")
	}
}

// table flattens tuples into the exported form, without checking them.
func table(name string, arity int, dead []int64, tuples ...relation.Tuple) BaseTable {
	tb := BaseTable{Name: name, Arity: arity, Rows: len(tuples), Dead: dead}
	for _, t := range tuples {
		tb.Values = append(tb.Values, t...)
	}
	return tb
}

func TestNewFromTablesRejectsGarbage(t *testing.T) {
	q := chainQ()
	good := []BaseTable{
		table("R", 2, nil, relation.Tuple{1, 2}),
		table("S", 2, nil, relation.Tuple{2, 3}),
	}
	if _, err := NewFromTables(q, good); err != nil {
		t.Fatalf("good tables rejected: %v", err)
	}
	if _, err := NewFromTables(q, good[:1]); err == nil {
		t.Fatal("missing table accepted")
	}
	extra := append(append([]BaseTable{}, good...), BaseTable{Name: "Z", Arity: 1})
	if _, err := NewFromTables(q, extra); err == nil {
		t.Fatal("unreferenced table accepted")
	}
	if _, err := NewFromTables(q, append(good[:2:2], good[0])); err == nil {
		t.Fatal("the same table twice accepted")
	}
	badArity := []BaseTable{table("R", 2, nil, relation.Tuple{1, 2, 3}), good[1]}
	if _, err := NewFromTables(q, badArity); err == nil {
		t.Fatal("tuple/arity mismatch accepted")
	}
	badDead := []BaseTable{table("R", 2, []int64{5}, relation.Tuple{1, 2}), good[1]}
	if _, err := NewFromTables(q, badDead); err == nil {
		t.Fatal("out-of-range dead position accepted")
	}
	// The same tuple twice — even with one copy tombstoned — would make Dead
	// positions and the next export disagree with the file; Tables never
	// writes one.
	twice := []BaseTable{table("R", 2, []int64{0}, relation.Tuple{1, 2}, relation.Tuple{3, 4}, relation.Tuple{1, 2}), good[1]}
	if _, err := NewFromTables(q, twice); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate tuple: err = %v", err)
	}
}

func TestUnmarshalBaseRejectsCorruptCounts(t *testing.T) {
	db := freshDB()
	src, err := New(db, chainQ())
	if err != nil {
		t.Fatal(err)
	}
	src.Insert("R", relation.Tuple{1, 2})

	write := func(mutate func(s *snapshot.SectionWriter)) *snapshot.Reader {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		s := w.Section(99)
		mutate(s)
		s.Close()
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f.Sections()[0].Reader()
	}

	// Tuple count inconsistent with the flat payload.
	r := write(func(s *snapshot.SectionWriter) {
		s.U64(1)
		s.Str("R")
		s.U64(2) // arity
		s.U64(3) // claims 3 tuples
		s.I64s([]int64{1, 2})
		s.I64s(nil)
	})
	if _, err := UnmarshalBase(r); err == nil {
		t.Fatal("tuple-count mismatch accepted")
	}
	// Dead positions out of order.
	r = write(func(s *snapshot.SectionWriter) {
		s.U64(1)
		s.Str("R")
		s.U64(2)
		s.U64(2)
		s.I64s([]int64{1, 2, 3, 4})
		s.I64s([]int64{1, 0})
	})
	if _, err := UnmarshalBase(r); err == nil {
		t.Fatal("unsorted dead list accepted")
	}
	// Absurd table count.
	r = write(func(s *snapshot.SectionWriter) { s.U64(1 << 60) })
	if _, err := UnmarshalBase(r); err == nil {
		t.Fatal("absurd table count accepted")
	}
}
