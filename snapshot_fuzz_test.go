package renum

import (
	"bytes"
	"os"
	"testing"
)

// fuzzSeedSnapshot builds one valid catalog image (a CQ and a UCQ over an
// interned-string database) for the fuzz corpus.
func fuzzSeedSnapshot(f *testing.F) []byte {
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < 20; i++ {
		r.MustInsert(Value(i%5), db.Intern("w"))
		s.MustInsert(db.Intern("w"), Value(i%3))
	}
	q := MustCQ("q", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	u := MustUCQ("U",
		MustCQ("u1", []string{"x", "y"}, NewAtom("R", V("x"), V("y"))),
		MustCQ("u2", []string{"y", "x"}, NewAtom("S", V("y"), V("x"))))
	hq, err := Open(db, q)
	if err != nil {
		f.Fatal(err)
	}
	hu, err := Open(db, u)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, db, 3, []CatalogEntry{
		{Name: "q", Q: q, H: hq},
		{Name: "U", Q: u, H: hu},
	}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedDynamicSnapshot builds a valid image holding a dynamic entry —
// a two-atom join whose base tables carry tombstones — so that mutated
// bytes reach the dynamic base decoder and the bulk loader behind it.
func fuzzSeedDynamicSnapshot(f *testing.F) []byte {
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < 12; i++ {
		r.MustInsert(Value(i), Value(i%4))
		s.MustInsert(Value(i%4), db.Intern("w"+string(rune('a'+i))))
	}
	q := MustCQ("dq", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("S", V("b"), V("c")))
	h, err := Open(db, q, WithDynamic())
	if err != nil {
		f.Fatal(err)
	}
	upd, err := h.Updater()
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i += 3 {
		if _, err := upd.Delete("R", Tuple{Value(i), Value(i % 4)}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := upd.Insert("S", Tuple{9, 9}); err != nil {
		f.Fatal(err)
	}
	if _, err := upd.Delete("S", Tuple{9, 9}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, db, 5, []CatalogEntry{{Name: "dq", Q: q, H: h}}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenSnapshot drives the snapshot decoder with mutated images:
// truncated, bit-flipped, version-bumped, or arbitrary bytes. The contract
// under test is the acceptance criterion of the format: the decoder either
// succeeds or returns an error in the ErrSnapshotInvalid family — it never
// panics and never reads out of bounds (the Go runtime turns an over-read
// of the aligned copy into a crash this fuzz target would catch). When an
// image does open, the restored handles are probed: the decoder's semantic
// validation guarantees probes cannot fault even if the content lies.
func FuzzOpenSnapshot(f *testing.F) {
	seed := fuzzSeedSnapshot(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:24])
	f.Add(seed[:len(seed)-7])
	bump := append([]byte(nil), seed...)
	bump[8] ^= 0x02 // version field
	f.Add(bump)
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add([]byte("RNMSNAP1 not really a snapshot"))
	dyn := fuzzSeedDynamicSnapshot(f)
	f.Add(dyn)
	f.Add(dyn[:len(dyn)-40])
	flip = append([]byte(nil), dyn...)
	flip[len(flip)*3/4] ^= 0x01
	f.Add(flip)
	for _, path := range []string{compatSnapshot, compatSnapshotV2} {
		compat, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compat)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cat, err := OpenSnapshotBytes(data)
		if err != nil {
			if !IsSnapshotInvalid(err) {
				t.Fatalf("decode error %v is not in the ErrSnapshotInvalid family", err)
			}
			return
		}
		defer cat.Close()
		// Opened: probe every entry. Answers may be semantically wrong on a
		// forged file, but no probe may panic or over-read.
		for _, e := range cat.Entries() {
			h := e.H
			n := h.Count()
			if n < 0 {
				t.Fatalf("entry %s: negative count %d", e.Name, n)
			}
			if n == 0 {
				continue
			}
			for _, j := range []int64{0, n / 2, n - 1} {
				tu, err := h.Access(j)
				if err != nil {
					t.Fatalf("entry %s: Access(%d) on validated snapshot: %v", e.Name, j, err)
				}
				if inv, err2 := h.Inverter(); err2 == nil {
					inv.InvertedAccess(tu) // must not panic; result unchecked
				}
				if c, err2 := h.Container(); err2 == nil {
					c.Contains(tu)
				}
			}
		}
	})
}
