package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/relation"
)

// RandomCQ draws a random conjunctive query from the space the property
// tests of the free-connex pipeline range over: 1–4 atoms of arity 1–3
// over the variables a…e, each atom over its own relation R0…R3 except
// that about one atom in five after the first reuses an earlier atom's
// relation (a self-join), repeated variables within an atom included, and a
// head that is a random subset of the body's variables in alphabetical
// order. When constants is set, each term is instead a constant in
// [0, dom) with probability one in five. It returns nil when the draw is no
// query a database can hold: an atom that uses a relation at another arity
// than an earlier one.
func RandomCQ(rng *rand.Rand, name string, constants bool, dom int) *query.CQ {
	varNames := []string{"a", "b", "c", "d", "e"}
	relNames := []string{"R0", "R1", "R2", "R3"}
	nAtoms := 1 + rng.Intn(4)
	var body []query.Atom
	used := map[string]bool{}
	arity := map[string]int{}
	ok := true
	for i := 0; i < nAtoms; i++ {
		terms := make([]query.Term, 1+rng.Intn(3))
		for j := range terms {
			if constants && rng.Intn(5) == 0 {
				terms[j] = query.C(relation.Value(rng.Intn(dom)))
				continue
			}
			v := varNames[rng.Intn(len(varNames))]
			terms[j] = query.V(v)
			used[v] = true
		}
		rel := relNames[i]
		if rng.Intn(5) == 0 && i > 0 {
			rel = relNames[rng.Intn(i)]
		}
		if ar, seen := arity[rel]; seen && ar != len(terms) {
			ok = false
		}
		arity[rel] = len(terms)
		body = append(body, query.Atom{Relation: rel, Terms: terms})
	}
	var head []string
	for _, v := range varNames {
		if used[v] && rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	if !ok {
		return nil
	}
	q, err := query.NewCQ(name, head, body)
	if err != nil {
		return nil // unreachable: the head is drawn from the body's variables
	}
	return q
}

// RandomDB returns a database holding every relation the queries' atoms
// name, at the arity the atoms use it, each filled with rows random tuples
// over [0, dom) (a tuple drawn twice is kept once). qs must agree on every
// relation's arity.
func RandomDB(rng *rand.Rand, qs []*query.CQ, rows, dom int) (*relation.Database, error) {
	db := relation.NewDatabase()
	for _, q := range qs {
		for _, a := range q.Body {
			if db.Has(a.Relation) {
				if r, _ := db.Relation(a.Relation); r.Arity() != len(a.Terms) {
					return nil, fmt.Errorf("synth: relation %s used at arities %d and %d", a.Relation, r.Arity(), len(a.Terms))
				}
				continue
			}
			attrs := make([]string, len(a.Terms))
			for j := range attrs {
				attrs[j] = fmt.Sprintf("%s_%d", a.Relation, j)
			}
			r := db.MustCreate(a.Relation, attrs...)
			for k := 0; k < rows; k++ {
				tu := make(relation.Tuple, len(attrs))
				for j := range tu {
					tu[j] = relation.Value(rng.Intn(dom))
				}
				if _, err := r.Insert(tu); err != nil {
					return nil, err
				}
			}
		}
	}
	return db, nil
}
