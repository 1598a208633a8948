package plan

import (
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// chainDB builds R1(a,b) ⋈ R2(b,c) with deliberately lopsided sizes: R1 has
// one tuple, R2 has many, so the row-count rule puts R1 first.
func chainDB(t *testing.T) (*relation.Database, *query.CQ) {
	t.Helper()
	db := relation.NewDatabase()
	r1 := db.MustCreate("R1", "a", "b")
	r1.MustInsert(1, 1)
	r2 := db.MustCreate("R2", "b", "c")
	for i := 0; i < 50; i++ {
		r2.MustInsert(relation.Value(i%5), relation.Value(i))
	}
	q, err := query.NewCQ("Q", []string{"a", "b", "c"},
		[]query.Atom{
			query.NewAtom("R1", query.V("a"), query.V("b")),
			query.NewAtom("R2", query.V("b"), query.V("c")),
		})
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// TestChooseCQIdentityFirstAndTies: the smaller relation moves to the
// front, and atoms of equal size keep their as-parsed order — an order that
// is already sorted returns the query pointer unchanged.
func TestChooseCQIdentityFirstAndTies(t *testing.T) {
	db, q := chainDB(t)
	swapped := &query.CQ{Name: q.Name, Head: q.Head, Body: []query.Atom{q.Body[1], q.Body[0]}}
	planned, p, err := ChooseCQ(db, swapped, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Candidates) != 1 || !slices.Equal(p.Candidates[0], []int{1, 0}) {
		t.Fatalf("plan = %+v, want the one order [1 0]", p)
	}
	if planned.Body[0].Relation != "R1" || planned.Body[1].Relation != "R2" {
		t.Fatalf("planned body %v, want R1 (1 row) before R2 (50 rows)", planned.Body)
	}
	if planned, _, err := ChooseCQ(db, q, ModeCost); err != nil || planned != q {
		t.Fatalf("an already sorted body was rebuilt (%v)", err)
	}

	// Equal row counts tie, and a tie keeps the as-parsed order.
	sym := relation.NewDatabase()
	a := sym.MustCreate("A", "x", "y")
	b := sym.MustCreate("B", "y", "z")
	for i := 0; i < 10; i++ {
		a.MustInsert(relation.Value(i), relation.Value(i))
		b.MustInsert(relation.Value(i), relation.Value(i))
	}
	for _, rels := range [][2]string{{"A", "B"}, {"B", "A"}} {
		qs, err := query.NewCQ("S", []string{"x", "y", "z"},
			[]query.Atom{
				query.NewAtom(rels[0], query.V("x"), query.V("y")),
				query.NewAtom(rels[1], query.V("y"), query.V("z")),
			})
		if err != nil {
			t.Fatal(err)
		}
		planned, p, err := ChooseCQ(sym, qs, ModeCost)
		if err != nil {
			t.Fatal(err)
		}
		if planned != qs || !slices.Equal(p.Candidates[0], []int{0, 1}) {
			t.Fatalf("%v: a tie moved off the as-parsed order: %v", rels, p.Candidates[0])
		}
	}
}

func TestChooseCQPermutesBodyOnly(t *testing.T) {
	db, q := chainDB(t)
	q = &query.CQ{Name: q.Name, Head: q.Head, Body: []query.Atom{q.Body[1], q.Body[0]}}
	pq, _, err := ChooseCQ(db, q, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if pq == q {
		t.Fatal("the body was not reordered")
	}
	if pq.Name != q.Name || !slices.Equal(pq.Head, q.Head) || len(pq.Body) != len(q.Body) {
		t.Fatalf("permuted query shape changed: %v", pq)
	}
	seen := make(map[string]int)
	for _, a := range q.Body {
		seen[a.String()]++
	}
	for _, a := range pq.Body {
		seen[a.String()]--
	}
	for s, n := range seen {
		if n != 0 {
			t.Fatalf("atom multiset changed: %s off by %d", s, n)
		}
	}
}

func TestChooseCQErrors(t *testing.T) {
	db, _ := chainDB(t)
	missing, err := query.NewCQ("M", []string{"x", "y"},
		[]query.Atom{query.NewAtom("NoSuch", query.V("x"), query.V("y"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChooseCQ(db, missing, ModeCost); err == nil {
		t.Fatal("unknown relation did not error")
	}
}

func TestExplainRendering(t *testing.T) {
	db, q := chainDB(t)
	_, p, err := ChooseCQ(db, q, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if want := "plan: atoms by row count, order [0 1]\n"; out != want {
		t.Fatalf("Explain() = %q, want %q", out, want)
	}
}
