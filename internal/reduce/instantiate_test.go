package reduce

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// referenceInstantiate is the definition Instantiate must keep: Filter the
// base relation by the atom's constants and repeated-variable equalities,
// then set-Project onto the first occurrence of every variable — both
// through the duplicate-checking operators.
func referenceInstantiate(t *testing.T, base *relation.Relation, a query.Atom) []relation.Tuple {
	t.Helper()
	first := make(map[string]int)
	var keep []string
	for pos, term := range a.Terms {
		if term.IsVar() {
			if _, ok := first[term.Var]; !ok {
				first[term.Var] = pos
				keep = append(keep, base.Schema()[pos])
			}
		}
	}
	sel := base.Filter("sel", func(tu relation.Tuple) bool {
		for pos, term := range a.Terms {
			if !term.IsVar() {
				if tu[pos] != term.Const {
					return false
				}
			} else if tu[pos] != tu[first[term.Var]] {
				return false
			}
		}
		return true
	})
	proj, err := sel.Project("proj", keep)
	if err != nil {
		t.Fatal(err)
	}
	return proj.Tuples()
}

// TestInstantiateMatchesFilterProject pins the dedup-free Instantiate to the
// old semantics on random atoms with constants and repeated variables: the
// same rows in the same order, no duplicate among them, and no row hashed.
// Bases of arity 1–4 cover the packed and the string-keyed index; values
// outside [0, 2^32) cover the unpackable pair.
func TestInstantiateMatchesFilterProject(t *testing.T) {
	rng := rand.New(rand.NewSource(20200614))
	domain := []relation.Value{0, 1, 2, 3, -1, 1 << 40}
	for trial := 0; trial < 400; trial++ {
		arity := 1 + rng.Intn(4)
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		db := relation.NewDatabase()
		base := db.MustCreate("R", attrs...)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			row := make([]relation.Value, arity)
			for k := range row {
				row[k] = domain[rng.Intn(len(domain))]
			}
			base.MustInsert(row...) // duplicates rejected: the base is a set
		}
		terms := make([]query.Term, arity)
		var head []string
		seen := make(map[string]bool)
		for k := range terms {
			if rng.Intn(3) == 0 {
				terms[k] = query.C(domain[rng.Intn(len(domain))])
				continue
			}
			v := fmt.Sprintf("x%d", rng.Intn(arity)) // small pool: repeats are common
			terms[k] = query.V(v)
			if !seen[v] {
				seen[v] = true
				head = append(head, v)
			}
		}
		a := query.NewAtom("R", terms...)
		q, err := query.NewCQ("q", head, []query.Atom{a})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Instantiate(db, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceInstantiate(t, base, a)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: atom %s over %v: %d rows, want %d", trial, a, base.Tuples(), got.Len(), len(want))
		}
		dup := make(map[string]bool, len(want))
		for i, w := range want {
			g := got.Tuple(i)
			if !g.Equal(w) {
				t.Fatalf("trial %d: atom %s: row %d = %v, want %v", trial, a, i, g, w)
			}
			if dup[g.Key()] {
				t.Fatalf("trial %d: atom %s: duplicate row %v", trial, a, g)
			}
			dup[g.Key()] = true
		}
		// Instantiate hashes no row: the atom's membership index is either
		// absent or, for an atom that selects nothing, the base's own
		// table (relation.Relation.Lend), never a fresh one.
		if got.Indexed() && !got.SharesIndexWith(base) {
			t.Fatalf("trial %d: Instantiate built a membership index of its own", trial)
		}
		got.BuildIndex()
		for _, w := range want {
			if !got.Contains(w) {
				t.Fatalf("trial %d: %v missing from the index", trial, w)
			}
		}
	}
}

// TestBuildFullJoinHashesNoRow: BuildFullJoin leaves the membership
// indexes to the access index. Whichever way a node relation came to be —
// borrowed, selected, semijoin-shrunk, projected, sorted — its index is
// absent or is its base's own table (relation.Relation.Lend), never one the
// reduction hashed.
func TestBuildFullJoinHashesNoRow(t *testing.T) {
	db := chainDB()
	wide := db.MustCreate("W", "x", "p", "q", "r")
	for i := 0; i < 40; i++ {
		wide.MustInsert(relation.Value(i%5), relation.Value(i), relation.Value(i%3), relation.Value(i%7))
	}
	queries := []*query.CQ{
		query.MustCQ("full", []string{"x", "y", "z"},
			query.NewAtom("R", query.V("x"), query.V("y")),
			query.NewAtom("S", query.V("y"), query.V("z"))),
		query.MustCQ("projected", []string{"x"},
			query.NewAtom("R", query.V("x"), query.V("y")),
			query.NewAtom("S", query.V("y"), query.V("z"))),
		query.MustCQ("selected", []string{"x", "y"},
			query.NewAtom("R", query.V("x"), query.V("y")),
			query.NewAtom("S", query.V("y"), query.C(100))),
		query.MustCQ("wide", []string{"x", "p", "q", "r", "y"},
			query.NewAtom("W", query.V("x"), query.V("p"), query.V("q"), query.V("r")),
			query.NewAtom("R", query.V("x"), query.V("y"))),
	}
	for _, q := range queries {
		for _, opts := range []Options{{}, {SkipFullReduce: true}, {CanonicalOrder: true}} {
			fj, err := BuildFullJoin(db, q, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", q.Name, opts, err)
			}
			for _, n := range fj.Nodes {
				if !n.Rel.Indexed() {
					continue
				}
				shared := false
				for _, name := range db.Names() {
					base, _ := db.Relation(name)
					shared = shared || n.Rel.SharesIndexWith(base)
				}
				if !shared {
					t.Fatalf("%s %+v: node %s left BuildFullJoin with a membership index of its own", q.Name, opts, n.Rel)
				}
			}
		}
	}
}
