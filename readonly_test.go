package renum

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// baseColumns copies every column of every relation of db.
func baseColumns(db *Database) map[string][][]Value {
	out := make(map[string][][]Value)
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		cols := make([][]Value, r.Arity())
		for a := range cols {
			cols[a] = slices.Clone(r.Col(a))
		}
		out[name] = cols
	}
	return out
}

// sameBaseColumns fails t when a relation of db no longer holds the columns
// want copied (baseColumns), or when db gained or lost a relation.
func sameBaseColumns(t testing.TB, name string, db *Database, want map[string][][]Value) {
	t.Helper()
	got := baseColumns(db)
	if len(got) != len(want) {
		t.Fatalf("%s: the database holds %d relations, %d before", name, len(got), len(want))
	}
	for rel, cols := range want {
		for a, col := range cols {
			if g := got[rel]; len(g) != len(cols) || !slices.Equal(g[a], col) {
				t.Fatalf("%s: column %d of base relation %s changed", name, a, rel)
			}
		}
	}
}

// openReadOnly is Open, failing t when Open changed a column of db.
func openReadOnly(t testing.TB, db *Database, q Query, opts ...Option) (*Handle, error) {
	t.Helper()
	before := baseColumns(db)
	h, err := Open(db, q, opts...)
	sameBaseColumns(t, fmt.Sprintf("Open(%v)", q), db, before)
	return h, err
}

// readOnlyDB is TestOpenNeverWritesTheDatabase's instance: R and S join one
// to one on 17 000 values, so that together they pass the serial-build
// threshold and WithWorkers(4) builds in parallel; T joins S on half of its
// rows, so a semijoin shrinks it; S2 and S3 are subsets of S in S's order,
// the twins of a compatible union.
func readOnlyDB() *Database {
	const n = 17_000
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	s2 := db.MustCreate("S2", "b", "c")
	s3 := db.MustCreate("S3", "b", "c")
	tt := db.MustCreate("T", "c", "d")
	for i := range Value(n) {
		r.MustInsert(i, i)
		s.MustInsert(i, i)
		if i%2 == 0 {
			s2.MustInsert(i, i)
		}
		if i%3 == 0 {
			s3.MustInsert(i, i)
		}
	}
	for i := range Value(2 * n) {
		tt.MustInsert(i, i%7)
	}
	return db
}

// TestOpenNeverWritesTheDatabase holds Open to reading its database only:
// an unfiltered atom's node relation borrows the base columns
// (relation.Relation.Lend), and a semijoin that shrinks it must gather the
// kept rows into arrays of its own rather than compact the base's. Every
// build path below leaves every base column as it was. Then an Insert into
// a base relation whose columns have spare capacity — room an append
// writes into without reallocating — must leave every open handle's
// Count, Access and InvertedAccess as they were.
func TestOpenNeverWritesTheDatabase(t *testing.T) {
	db := readOnlyDB()
	before := baseColumns(db)
	join := MustCQ("Q", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("S", V("b"), V("c")))
	twin := func(rel string) *CQ {
		return MustCQ("Q"+rel, []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom(rel, V("b"), V("c")))
	}
	cases := []struct {
		name string
		q    Query
		opts []Option
	}{
		{"unfiltered full join", join, nil},
		{"constant-filtered atom", MustCQ("Q", []string{"b", "c"}, NewAtom("R", C(7), V("b")), NewAtom("S", V("b"), V("c"))), nil},
		{"semijoin-shrunk atom", MustCQ("Q", []string{"b", "c", "d"}, NewAtom("S", V("b"), V("c")), NewAtom("T", V("c"), V("d"))), nil},
		{"projected CQ", MustCQ("Q", []string{"a"}, NewAtom("R", V("a"), V("b")), NewAtom("S", V("b"), V("c"))), nil},
		{"self-join", MustCQ("Q", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("R", V("b"), V("c"))), nil},
		{"canonical", join, []Option{WithCanonical()}},
		{"three-disjunct union", MustUCQ("U", twin("S"), twin("S2"), twin("S3")), nil},
	}
	type opened struct {
		name string
		h    *Handle
		seq  []Tuple
	}
	var handles []opened
	for _, c := range cases {
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s, workers %d", c.name, w)
			h, err := openReadOnly(t, db, c.q, append(c.opts, WithWorkers(w))...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if h.Count() == 0 {
				t.Fatalf("%s: no answers", name)
			}
			seq := make([]Tuple, h.Count())
			for j := range seq {
				if seq[j], err = h.Access(int64(j)); err != nil {
					t.Fatalf("%s: Access(%d): %v", name, j, err)
				}
			}
			handles = append(handles, opened{name, h, seq})
		}
	}
	sameBaseColumns(t, "after every Open", db, before)

	r, _ := db.Relation("R")
	if cap(r.Col(0)) == r.Len() || cap(r.Col(1)) == r.Len() {
		t.Fatalf("fixture: R's columns have no spare capacity (len %d, caps %d and %d)", r.Len(), cap(r.Col(0)), cap(r.Col(1)))
	}
	// (17 000, 0) joins S's row (0, 0): a handle that read R's new row
	// would count one more answer.
	if added, err := r.Insert(Tuple{17_000, 0}); err != nil || !added {
		t.Fatalf("Insert into R: added %t, %v", added, err)
	}
	for _, o := range handles {
		if got := o.h.Count(); got != int64(len(o.seq)) {
			t.Fatalf("%s: Count %d after an Insert into R, %d before", o.name, got, len(o.seq))
		}
		var inv Inverter
		if o.h.Has(CapInvert) {
			var err error
			if inv, err = o.h.Inverter(); err != nil {
				t.Fatal(err)
			}
		}
		for j, want := range o.seq {
			got, err := o.h.Access(int64(j))
			if err != nil || !got.Equal(want) {
				t.Fatalf("%s: Access(%d) = %v, %v after an Insert into R, %v before", o.name, j, got, err, want)
			}
			if inv == nil {
				continue
			}
			if k, ok := inv.InvertedAccess(want); !ok || k != int64(j) {
				t.Fatalf("%s: InvertedAccess(%v) = %d, %t after an Insert into R, want %d", o.name, want, k, ok, j)
			}
		}
	}
}

// TestInsertIntoLentBase inserts into a base relation while other
// goroutines probe handles opened over it. Every unfiltered atom's node
// shares its base's membership index (relation.Relation.Lend), and the
// Insert copies that table before writing it: a handle keeps answering
// from the table it was built with, so InvertedAccess and Contains give
// every answer they gave before, and no handle finds an answer that an
// inserted tuple would add. Under the race detector an Insert that wrote
// the shared table in place shows as a race; without it, as a handle that
// finds an inserted tuple or indexes past its columns. The inserts are
// many enough to grow R's table more than once.
func TestInsertIntoLentBase(t *testing.T) {
	const n, added = 2_000, 6_000
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := range Value(n) {
		r.MustInsert(i, i)
		s.MustInsert(i, i)
	}
	join := MustCQ("Q", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("S", V("b"), V("c")))
	self := MustCQ("Q", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("R", V("b"), V("c")))
	type opened struct {
		name string
		inv  Inverter
		con  Container
		seq  []Tuple
	}
	var handles []opened
	for _, c := range []struct {
		name string
		q    *CQ
		w    int
	}{{"join", join, 1}, {"join, workers 4", join, 4}, {"self-join", self, 1}} {
		h, err := Open(db, c.q, WithWorkers(c.w))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		inv, err := h.Inverter()
		if err != nil {
			t.Fatal(err)
		}
		con, err := h.Container()
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]Tuple, h.Count())
		for j := range seq {
			if seq[j], err = h.Access(int64(j)); err != nil {
				t.Fatalf("%s: Access(%d): %v", c.name, j, err)
			}
		}
		handles = append(handles, opened{c.name, inv, con, seq})
	}

	// Inserted row k is (n+k, k mod n): it joins S's row (k mod n, k mod n)
	// and, for the self-join, R's row (k mod n, k mod n).
	inserted := func(k int) Tuple { return Tuple{Value(n + k), Value(k % n), Value(k % n)} }
	var wg sync.WaitGroup
	errs := make(chan error, len(handles)+1)
	done := make(chan struct{})
	for _, o := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Probe while the inserts run, then once more after the last.
			for last := false; !last; {
				select {
				case <-done:
					last = true
				default:
				}
				for j, want := range o.seq {
					if k, ok := o.inv.InvertedAccess(want); !ok || k != int64(j) {
						errs <- fmt.Errorf("%s: InvertedAccess(%v) = %d, %t during inserts, want %d", o.name, want, k, ok, j)
						return
					}
					if !o.con.Contains(want) {
						errs <- fmt.Errorf("%s: Contains(%v) false during inserts", o.name, want)
						return
					}
					extra := inserted(j % added)
					if o.con.Contains(extra) {
						errs <- fmt.Errorf("%s: Contains(%v) true for an inserted tuple", o.name, extra)
						return
					}
					if _, ok := o.inv.InvertedAccess(extra); ok {
						errs <- fmt.Errorf("%s: InvertedAccess found the inserted tuple %v", o.name, extra)
						return
					}
				}
			}
		}()
	}
	go func() {
		defer close(done)
		for k := range added {
			if ok, err := r.Insert(inserted(k)[:2]); err != nil || !ok {
				errs <- fmt.Errorf("Insert(%v) into R: added %t, %v", inserted(k)[:2], ok, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r.Len() != n+added {
		t.Fatalf("R holds %d rows, want %d", r.Len(), n+added)
	}
}
