package renum

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"repro/internal/access"
)

// compatSnapshot is a format-version-1 catalog written from compatFixture's
// inputs by an earlier build, one whose index kept every aggregate the file
// carries (per-slot weights, per-bucket maximum weights, the leaves' prefix
// sums and totals). The current index derives those sections when it writes.
const compatSnapshot = "testdata/v1_cq_ucq.snap"

// compatFixture builds the catalog compatSnapshot holds: a four-atom CQ
// whose join tree has a root, an inner node and two leaves, and a
// two-disjunct union (two disjunct indexes and their intersection), over
// integer and dictionary-interned values.
func compatFixture(t testing.TB) (*Database, []CatalogEntry) {
	t.Helper()
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	u := db.MustCreate("T", "c", "d")
	w := db.MustCreate("W", "b", "e")
	rng := rand.New(rand.NewSource(29))
	words := []string{"ash", "elm", "fir", "oak", "yew"}
	word := func() Value { return db.Intern(words[rng.Intn(len(words))]) }
	for i := 0; i < 40; i++ {
		r.MustInsert(Value(rng.Intn(12)), word())
		s.MustInsert(word(), Value(rng.Intn(9)))
		u.MustInsert(Value(rng.Intn(9)), Value(rng.Intn(6)))
		w.MustInsert(word(), Value(rng.Intn(9)))
	}
	q := MustCQ("q", []string{"a", "b", "c", "d", "e"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")),
		NewAtom("T", V("c"), V("d")),
		NewAtom("W", V("b"), V("e")))
	un := MustUCQ("U",
		MustCQ("u1", []string{"x", "y", "z"}, NewAtom("R", V("x"), V("y")), NewAtom("S", V("y"), V("z"))),
		MustCQ("u2", []string{"x", "y", "z"}, NewAtom("R", V("x"), V("y")), NewAtom("W", V("y"), V("z"))))
	var entries []CatalogEntry
	for _, e := range []struct {
		name string
		q    Query
	}{{"q", q}, {"U", un}} {
		h, err := Open(db, e.q, WithPlanner(PlannerOff))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, CatalogEntry{Name: e.name, Q: e.q, H: h})
	}
	return db, entries
}

// TestSnapshotBytesMatchEarlierBuild: WriteSnapshot reproduces
// compatSnapshot byte for byte from the same inputs, and the restored
// catalog answers Access and InvertedAccess exactly as the handles Open
// built.
func TestSnapshotBytesMatchEarlierBuild(t *testing.T) {
	want, err := os.ReadFile(compatSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	db, entries := compatFixture(t)
	var got bytes.Buffer
	if err := WriteSnapshot(&got, db, 1, entries); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		at := 0
		for at < min(got.Len(), len(want)) && got.Bytes()[at] == want[at] {
			at++
		}
		t.Fatalf("WriteSnapshot: %d bytes, %s: %d bytes; first difference at byte %d", got.Len(), compatSnapshot, len(want), at)
	}

	cat, err := OpenSnapshotBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	restored := cat.Entries()
	if len(restored) != len(entries) {
		t.Fatalf("restored %d entries, want %d", len(restored), len(entries))
	}
	for i, e := range entries {
		built, rest := e.H, restored[i].H
		if built.Count() == 0 || rest.Count() != built.Count() {
			t.Fatalf("%s: restored count %d, built %d", e.Name, rest.Count(), built.Count())
		}
		for j := int64(0); j < built.Count(); j++ {
			if a, b := mustAccess(t, built, j), mustAccess(t, rest, j); !a.Equal(b) {
				t.Fatalf("%s: Access(%d): restored %v, built %v", e.Name, j, b, a)
			}
		}
		// Inverted access, on every index the entry holds (a union's
		// disjuncts and their intersection included).
		builtIdx, restIdx := entryIndexes(built), entryIndexes(rest)
		if len(builtIdx) == 0 || len(restIdx) != len(builtIdx) {
			t.Fatalf("%s: restored %d indexes, built %d", e.Name, len(restIdx), len(builtIdx))
		}
		for k, bi := range builtIdx {
			ri := restIdx[k]
			for j := int64(0); j < bi.Count(); j++ {
				a, err := bi.Access(j)
				if err != nil {
					t.Fatal(err)
				}
				if b, err := ri.Access(j); err != nil || !a.Equal(b) {
					t.Fatalf("%s index %d: Access(%d): restored %v (%v), built %v", e.Name, k, j, b, err, a)
				}
				if got, ok := ri.InvertedAccess(a); !ok || got != j {
					t.Fatalf("%s index %d: restored InvertedAccess(Access(%d)) = %d, %v", e.Name, k, j, got, ok)
				}
			}
		}
	}
}

// entryIndexes returns the static indexes behind a CQ or union handle.
func entryIndexes(h *Handle) []*access.Index {
	switch b := h.b.(type) {
	case cqBackend:
		return []*access.Index{b.c.Index}
	case uaBackend:
		return b.m.Indexes()
	}
	return nil
}
