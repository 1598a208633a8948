package renum

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/snapshot"
)

// compatSnapshot is a format-version-1 catalog written from compatFixture's
// inputs by an earlier build, one whose index kept every aggregate the file
// carries (per-slot weights, per-bucket maximum weights, the leaves' prefix
// sums and totals) and each node's relation in its reduced order, with a
// slot → row table and a row → ordinal table. The current reader still
// opens it, and gathers every node into slot order as it does.
const compatSnapshot = "testdata/v1_cq_ucq.snap"

// compatSnapshotV2 is the same catalog in format version 2, the layout
// WriteSnapshot writes: bucket-ordered relations, and aggregates at inner
// nodes only. It was written once from compatFixture.
const compatSnapshotV2 = "testdata/v2_cq_ucq.snap"

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
// compatSnapshotV2 byte for byte from the same inputs, and the catalog
// restored from compatSnapshot, the version-1 file, answers Access and
// InvertedAccess exactly as the handles Open built.
func TestSnapshotBytesMatchEarlierBuild(t *testing.T) {
	want, err := os.ReadFile(compatSnapshotV2)
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
		t.Fatalf("WriteSnapshot: %d bytes, %s: %d bytes; first difference at byte %d", got.Len(), compatSnapshotV2, len(want), at)
	}

	v1, err := os.ReadFile(compatSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := OpenSnapshotBytes(v1)
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

// TestSnapshotV1RestoresAsV2: the version-1 and version-2 files of one
// catalog restore to identical Access sequences on every index, and the
// version-1 catalog, saved again, is the version-2 file byte for byte — the
// gather at open moves it into exactly the layout a fresh build writes.
func TestSnapshotV1RestoresAsV2(t *testing.T) {
	v1, err := os.ReadFile(compatSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(compatSnapshotV2)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := OpenSnapshotBytes(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := OpenSnapshotBytes(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	e1, e2 := c1.Entries(), c2.Entries()
	if len(e1) != 2 || len(e2) != len(e1) {
		t.Fatalf("entries: v1 %d, v2 %d", len(e1), len(e2))
	}
	for i := range e1 {
		x1, x2 := entryIndexes(e1[i].H), entryIndexes(e2[i].H)
		if len(x1) == 0 || len(x2) != len(x1) {
			t.Fatalf("%s: v1 %d indexes, v2 %d", e1[i].Name, len(x1), len(x2))
		}
		for k := range x1 {
			if x1[k].Count() == 0 || x2[k].Count() != x1[k].Count() {
				t.Fatalf("%s index %d: count v1 %d, v2 %d", e1[i].Name, k, x1[k].Count(), x2[k].Count())
			}
			for j := int64(0); j < x1[k].Count(); j++ {
				a, err1 := x1[k].Access(j)
				b, err2 := x2[k].Access(j)
				if err1 != nil || err2 != nil || !a.Equal(b) {
					t.Fatalf("%s index %d: Access(%d): v1 %v (%v), v2 %v (%v)", e1[i].Name, k, j, a, err1, b, err2)
				}
			}
		}
	}
	var again bytes.Buffer
	if err := WriteSnapshot(&again, c1.DB(), c1.Generation(), e1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), v2) {
		t.Fatalf("v1 catalog saved again: %d bytes, %s: %d bytes", again.Len(), compatSnapshotV2, len(v2))
	}
}

// TestSnapshotRefusesLaterVersion: a header naming a format version after
// the one this build writes is refused with the typed version error, as an
// older build refuses version 2.
func TestSnapshotRefusesLaterVersion(t *testing.T) {
	v2, err := os.ReadFile(compatSnapshotV2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, SnapshotVersion + 1} {
		b := append([]byte(nil), v2...)
		binary.NativeEndian.PutUint32(b[8:], v)
		if _, err := OpenSnapshotBytes(b); !IsSnapshotInvalid(err) || !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("version %d: %v, want ErrVersion", v, err)
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

// TestConcurrentFirstProbesAfterRestore: a restored CQ hashes nothing until
// its first inverted access, which builds every node relation's membership
// index once while concurrent first probes wait. Eight goroutines race their
// first InvertedAccess or Contains — on the restored CQ, on a SliceView of
// it and on the restored union — against Access on the same handles; every
// answer must be the built handles', and afterwards every node relation of
// every index a probe inverted — the CQ's and the union's disjuncts' — is
// indexed. (The union's intersection index is only accessed, never
// inverted, so it keeps hashing nothing.)
func TestConcurrentFirstProbesAfterRestore(t *testing.T) {
	db, entries := compatFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, db, 1, entries); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	restored := cat.Entries()
	for _, idx := range entryIndexes(restored[0].H) {
		if idx.MembersIndexed() {
			t.Fatal("restoring the CQ built a membership index")
		}
	}
	slice, err := SliceView(restored[0].H, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(h *Handle) []Tuple {
		out := make([]Tuple, h.Count())
		for j := range out {
			out[j] = mustAccess(t, h, int64(j))
		}
		return out
	}
	cq, union := answers(entries[0].H), answers(entries[1].H)
	half := len(cq) / 2 // SliceView's window 1 of 2 starts at ⌊n/2⌋
	targets := []struct {
		name      string
		h         *Handle
		want      []Tuple // the handle's answers, in order
		outside   []Tuple // answers of the CQ the handle must not contain
		canInvert bool
	}{
		{"q", restored[0].H, cq, nil, true},
		{"q slice 1/2", slice, cq[half:], cq[:half], true},
		{"U", restored[1].H, union, nil, false},
	}

	const goroutines = 8
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			buf := make(Tuple, 5)
			for k := range targets {
				tg := targets[(k+g)%len(targets)]
				inv, _ := tg.h.Inverter()
				con, err := tg.h.Container()
				if err != nil {
					errs <- err
					return
				}
				row := buf[:len(tg.h.Head())]
				for j, want := range tg.want {
					if g%2 == 0 && inv != nil {
						if got, ok := inv.InvertedAccess(want); !ok || got != int64(j) {
							errs <- fmt.Errorf("%s: InvertedAccess(%v) = %d, %t, want %d", tg.name, want, got, ok, j)
							return
						}
					} else if !con.Contains(want) {
						errs <- fmt.Errorf("%s: Contains(%v) = false", tg.name, want)
						return
					}
					if err := tg.h.AccessInto(int64(j), row); err != nil || !row.Equal(want) {
						errs <- fmt.Errorf("%s: Access(%d) = %v, %v, want %v", tg.name, j, row, err, want)
						return
					}
				}
				for _, out := range tg.outside {
					if con.Contains(out) {
						errs <- fmt.Errorf("%s: contains %v, an answer outside its window", tg.name, out)
						return
					}
				}
				if inv == nil && tg.canInvert {
					errs <- fmt.Errorf("%s: no inverted access", tg.name)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	inverted := append(entryIndexes(restored[0].H), entryIndexes(restored[1].H)[:restored[1].H.b.(uaBackend).m.NumDisjuncts()]...)
	for i, idx := range inverted {
		if !idx.MembersIndexed() {
			t.Errorf("index %d has a node relation without its membership index", i)
		}
	}
}
