// Package plan picks the body-atom order a CQ is compiled in. The paper's
// guarantees — logarithmic random access after linear preprocessing — hold
// for any join tree of a free-connex CQ; the tree, a function of the order
// the reduction sees the atoms in, only changes constants. One rule picks
// it: the body atoms, stably sorted by their relations' row counts. The
// smallest relation comes first and tends to root the tree, and the
// largest tends to end up a leaf, which stores no start index and needs no
// search. Atoms of equal size keep their as-parsed order.
package plan

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/query"
	"repro/internal/relation"
)

// Mode names the planning rule. ModeCost, the row-count rule, is the only
// one; compiling the as-parsed order means not calling ChooseCQ.
type Mode string

// ModeCost sorts a CQ's body atoms by their relations' row counts.
const ModeCost Mode = "cost"

// Plan records the order ChooseCQ picked.
type Plan struct {
	// Candidates holds one entry, the order compiled: Candidates[0][i] is
	// the as-parsed index of the i-th atom.
	Candidates [][]int
}

// Explain renders the chosen order, the section Handle.Explain prints
// above the join tree.
func (p *Plan) Explain() string {
	return fmt.Sprintf("plan: atoms by row count, order %v\n", p.Candidates[0])
}

// ChooseCQ returns q with its body atoms stably sorted by their relations'
// row counts (q itself when that is the as-parsed order) and the plan
// record. An atom over an unknown relation returns q unchanged with the
// error; the build surfaces the same condition with its usual typed error.
func ChooseCQ(db *relation.Database, q *query.CQ, mode Mode) (*query.CQ, *Plan, error) {
	rows := make([]int, len(q.Body))
	order := make([]int, len(q.Body))
	for i, a := range q.Body {
		r, err := db.Relation(a.Relation)
		if err != nil {
			return q, nil, err
		}
		rows[i], order[i] = r.Len(), i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rows[a], rows[b]) })
	p := &Plan{Candidates: [][]int{order}}
	if slices.IsSorted(order) {
		return q, p, nil
	}
	body := make([]query.Atom, len(order))
	for i, o := range order {
		body[i] = q.Body[o]
	}
	return &query.CQ{Name: q.Name, Head: append([]string(nil), q.Head...), Body: body}, p, nil
}
