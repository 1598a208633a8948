// Package reduce implements Proposition 4.2 of the paper: given a free-connex
// CQ Q and a database D, compute — in linear time — a *full* acyclic join
// query Q' and database D' with Q(D) = Q'(D') where D' is globally consistent
// with respect to Q'. It is built from three pieces:
//
//  1. atom instantiation: turn every atom R(t̄) into a relation over the
//     atom's variables (applying constant selections and repeated-variable
//     equalities),
//  2. the Yannakakis full reducer (two semijoin sweeps over a join tree)
//     which removes dangling tuples, and
//  3. protected GYO elimination: repeatedly project away existential
//     variables that are local to a single atom and absorb atoms subsumed by
//     others via semijoins, until only free variables remain.
//
// All relation operations preserve relative tuple order, which is what makes
// enumeration orders of structurally-aligned queries compatible (Section 5.2).
package reduce

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/relation"
)

// Instantiate converts atom a of q into a relation whose schema is the atom's
// distinct variables (in first-occurrence order). Tuples violating the atom's
// constants or repeated-variable equalities are dropped; the remaining tuples
// are projected onto the variable positions, preserving the base relation's
// tuple order.
//
// No tuple is hashed. The projection drops only columns the selection has
// pinned — to a constant, or to the column of the same variable's first
// occurrence — so it is injective on the selected rows, and the base
// relation is a set (relation.Relation's invariant): the output cannot hold
// a duplicate, and it has no membership index: the access index builds one
// for each relation that survives the reduction.
//
// Nothing is copied or hashed when nothing is selected: an atom whose terms
// are distinct variables borrows the base's columns and shares its
// maintained membership index (relation.Relation.Lend), and the first
// semijoin that removes one of its rows gathers the kept rows into arrays
// of its own and lets the shared index go. The database is never written.
// A selection gathers fresh columns of exactly the kept size, and a
// snapshot-backed base is always copied, so that no index points into its
// mapping.
func Instantiate(db *relation.Database, q *query.CQ, atomIdx int) (*relation.Relation, error) {
	a := q.Body[atomIdx]
	base, err := db.Relation(a.Relation)
	if err != nil {
		return nil, fmt.Errorf("reduce: query %s: %w", q.Name, err)
	}
	if base.Arity() != len(a.Terms) {
		return nil, fmt.Errorf("reduce: query %s: atom %s has %d terms, relation %s has arity %d",
			q.Name, a, len(a.Terms), a.Relation, base.Arity())
	}
	schema, err := relation.NewSchema(a.Vars()...)
	if err != nil {
		return nil, fmt.Errorf("reduce: query %s atom %d: %w", q.Name, atomIdx, err)
	}

	// Resolve the terms once, outside the row loop: the output columns are
	// the first occurrences of the variables (schema order), and every other
	// term is one of two kinds of check on a base column.
	type constCheck struct {
		col []relation.Value
		val relation.Value
	}
	type eqCheck struct{ col, first []relation.Value }
	var consts []constCheck
	var eqs []eqCheck
	src := make([][]relation.Value, 0, len(schema))
	for pos, t := range a.Terms {
		switch {
		case !t.IsVar():
			consts = append(consts, constCheck{base.Col(pos), t.Const})
		case schema.Position(t.Var) == len(src):
			src = append(src, base.Col(pos))
		default:
			eqs = append(eqs, eqCheck{base.Col(pos), src[schema.Position(t.Var)]})
		}
	}

	name := fmt.Sprintf("%s#%d[%s]", q.Name, atomIdx, a.Relation)
	if len(consts) == 0 && len(eqs) == 0 {
		// Every term is a distinct variable: the atom is the base relation
		// under the atom's schema, and it reads the base's columns until a
		// semijoin shrinks it.
		return base.Lend(name, schema)
	}
	n := base.Len()
	cols := make([][]relation.Value, len(src))
	// A selection keeps a fraction of the rows that is unknown up front, so
	// the kept row numbers are collected first and each output column is
	// then allocated at its exact size and gathered in one pass.
	keep := make([]int32, 0, n)
rows:
	for i := 0; i < n; i++ {
		for _, c := range consts {
			if c.col[i] != c.val {
				continue rows
			}
		}
		for _, e := range eqs {
			if e.col[i] != e.first[i] {
				continue rows
			}
		}
		keep = append(keep, int32(i))
	}
	for k, col := range src {
		out := make([]relation.Value, len(keep))
		for j, i := range keep {
			out[j] = col[i]
		}
		cols[k] = out
	}
	return relation.AdoptColumns(name, schema, len(keep), cols)
}

// InstantiateAll instantiates every atom of q.
func InstantiateAll(db *relation.Database, q *query.CQ) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(q.Body))
	for i := range q.Body {
		r, err := Instantiate(db, q, i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
