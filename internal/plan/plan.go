// Package plan is the cost-based join-tree planner. The paper's guarantees —
// logarithmic random access after linear preprocessing — hold for *any*
// valid join tree of a free-connex CQ, but the constant factors (bucket
// widths, probe depth, index size) vary a lot with which tree is picked, and
// the tree is a function of the body-atom order the reduction sees. The
// planner enumerates body-atom orders (and disjunct orders of a UCQ), replays
// the reduction's elimination decisions on schemas alone
// (reduce.SimulateEliminate — the same driver the real reduction runs, so the
// predicted tree is exactly what BuildFullJoin will produce), costs each
// candidate from per-relation statistics (stats.CollectRelation: tuple counts
// and per-column distinct counts off relation.GroupBy), and returns the
// cheapest order. The as-parsed order is always candidate 0 and wins ties, so
// the planner never makes a query more expensive under its own model.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Mode selects the planner behavior.
type Mode string

const (
	// ModeCost enumerates and costs candidate trees, picking the cheapest.
	ModeCost Mode = "cost"
	// ModeOff keeps the as-parsed order byte-for-byte (the planner is not
	// consulted at all).
	ModeOff Mode = "off"
)

// ParseMode validates a planner mode string (CLI flags).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeCost, ModeOff:
		return Mode(s), nil
	}
	return "", fmt.Errorf("plan: unknown planner mode %q (want cost or off)", s)
}

const (
	// maxExactAtoms bounds exhaustive permutation: n! orders up to 6 atoms
	// (720 schema-only simulations — microseconds), heuristic orders beyond.
	maxExactAtoms = 6
	// maxCandidates bounds the distinct trees recorded and costed.
	maxCandidates = 256
	// probeWeight converts per-probe cost into build-cost units: the serving
	// tier amortizes each index over many probes, so a tree that probes
	// cheaper is worth a moderately larger build.
	probeWeight = 256.0
)

// Candidate is one costed join-tree alternative.
type Candidate struct {
	// Order is the body-atom permutation (CQ) or disjunct permutation (UCQ)
	// relative to the as-parsed query. Candidate 0 is always the identity.
	Order []int
	// Cost is the total estimated cost (Build + probeWeight·Probe).
	Cost float64
	// Build estimates the index build work: the sum of estimated node sizes
	// of the remainder join tree.
	Build float64
	// Probe estimates one random-access probe: log2 of the root size plus
	// log2 of each non-root node's expected bucket width.
	Probe float64
	// Tree renders the predicted remainder tree: surviving atoms (by
	// as-parsed index) with their parents.
	Tree string
}

// Plan records a planning decision for Explain and metrics.
type Plan struct {
	// Kind is "cq" or "ucq".
	Kind string
	// Mode the planner ran in.
	Mode Mode
	// Candidates lists the distinct costed trees, identity first.
	Candidates []Candidate
	// Chosen indexes the winning candidate.
	Chosen int
	// Enumerated counts the orders examined before tree deduplication.
	Enumerated int
	// Duration is the wall-clock planning time.
	Duration time.Duration
}

// Identity reports whether the chosen order is the as-parsed one.
func (p *Plan) Identity() bool {
	return p == nil || p.Chosen == 0
}

// ChosenCost returns the winner's cost; IdentityCost the as-parsed cost.
func (p *Plan) ChosenCost() float64   { return p.Candidates[p.Chosen].Cost }
func (p *Plan) IdentityCost() float64 { return p.Candidates[0].Cost }

// Explain renders the candidate set with costs and the winner, the section
// Handle.Explain prepends to the join-tree rendering.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: %s %s, %d candidate tree(s) from %d order(s) in %s\n",
		p.Kind, p.Mode, len(p.Candidates), p.Enumerated, p.Duration.Round(time.Microsecond))
	const maxListed = 12
	for i, c := range p.Candidates {
		if i >= maxListed {
			fmt.Fprintf(&sb, "  … %d more candidate(s)\n", len(p.Candidates)-maxListed)
			break
		}
		marker := " "
		if i == p.Chosen {
			marker = "*"
		}
		note := ""
		if i == 0 {
			note = "  (as parsed)"
		}
		fmt.Fprintf(&sb, "%s [%d] order %v  cost %.3g (build %.3g, probe %.3g)  %s%s\n",
			marker, i, c.Order, c.Cost, c.Build, c.Probe, c.Tree, note)
	}
	return sb.String()
}

// ---------------------------------------------------------------------- CQ

// ChooseCQ plans q over db: it returns the body-reordered CQ of the cheapest
// candidate tree (the as-parsed query itself when identity wins) plus the
// plan record. Planning failures of the as-parsed order (cyclic body,
// non-free-connex head) return q unchanged with the error — the caller's
// real build will surface the same condition with its usual typed error.
func ChooseCQ(db *relation.Database, q *query.CQ, mode Mode) (*query.CQ, *Plan, error) {
	t0 := time.Now()
	p := &Plan{Kind: "cq", Mode: mode}
	head := q.HeadSet()

	est, err := atomEstimates(db, q, make(map[string]*stats.Stats))
	if err != nil {
		return q, nil, err
	}

	seen := make(map[string]bool)
	best, bestCost := 0, math.Inf(1)
	for _, order := range bodyOrders(q, est) {
		p.Enumerated++
		c, sig, err := costOrder(q, order, head, est)
		if err != nil {
			if len(p.Candidates) == 0 {
				// The as-parsed order itself is outside the supported class.
				return q, nil, err
			}
			continue
		}
		if seen[sig] {
			continue
		}
		seen[sig] = true
		if len(p.Candidates) >= maxCandidates {
			break
		}
		p.Candidates = append(p.Candidates, c)
		// Strict improvement only: ties keep the earlier (identity-first)
		// candidate, so equal-cost plans never perturb the as-parsed order.
		if c.Cost < bestCost {
			best, bestCost = len(p.Candidates)-1, c.Cost
		}
	}
	p.Chosen = best
	p.Duration = time.Since(t0)
	if p.Identity() {
		return q, p, nil
	}
	return permuteBody(q, p.Candidates[best].Order), p, nil
}

// permuteBody returns q with its body atoms reordered; the head (and thus
// the answer set) is unchanged.
func permuteBody(q *query.CQ, order []int) *query.CQ {
	body := make([]query.Atom, len(order))
	for i, o := range order {
		body[i] = q.Body[o]
	}
	return &query.CQ{
		Name: q.Name,
		Head: append([]string(nil), q.Head...),
		Body: body,
	}
}

// bodyOrders yields the candidate body-atom orders: all n! permutations in
// lexicographic order (identity first) up to maxExactAtoms, and beyond that
// the identity, size-sorted (ascending and descending) and adjacent-swap
// orders — a bounded neighborhood that still finds the common wins (a small
// filtered atom promoted to the root).
func bodyOrders(q *query.CQ, est []atomEst) [][]int {
	n := len(q.Body)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if n <= 1 {
		return [][]int{identity}
	}
	if n <= maxExactAtoms {
		return permutations(n)
	}
	var orders [][]int
	add := func(o []int) { orders = append(orders, o) }
	add(identity)
	bySize := func(desc bool) []int {
		o := append([]int(nil), identity...)
		sort.SliceStable(o, func(a, b int) bool {
			if desc {
				return est[o[a]].size > est[o[b]].size
			}
			return est[o[a]].size < est[o[b]].size
		})
		return o
	}
	add(bySize(false))
	add(bySize(true))
	for i := 0; i < n-1; i++ {
		o := append([]int(nil), identity...)
		o[i], o[i+1] = o[i+1], o[i]
		add(o)
	}
	return orders
}

// permutations returns every permutation of 0..n-1 in lexicographic order.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	for {
		out = append(out, append([]int(nil), cur...))
		// Next lexicographic permutation.
		i := n - 2
		for i >= 0 && cur[i] >= cur[i+1] {
			i--
		}
		if i < 0 {
			return out
		}
		j := n - 1
		for cur[j] <= cur[i] {
			j--
		}
		cur[i], cur[j] = cur[j], cur[i]
		for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
			cur[l], cur[r] = cur[r], cur[l]
		}
	}
}

// costOrder simulates the reduction for one body order and costs the
// predicted remainder tree. sig is a structural signature used to collapse
// orders that produce the identical index.
func costOrder(q *query.CQ, order []int, head map[string]bool, est []atomEst) (Candidate, string, error) {
	schemas := make([][]string, len(order))
	for i, o := range order {
		schemas[i] = q.Body[o].Vars()
	}
	surviving, atoms, err := reduce.SimulateEliminate(schemas, head)
	if err != nil {
		return Candidate{}, "", err
	}
	rh := &hypergraph.Hypergraph{}
	for i, s := range surviving {
		rh.Edges = append(rh.Edges, hypergraph.NewEdge(i, s))
	}
	rtree, err := rh.JoinTree()
	if err != nil {
		return Candidate{}, "", err
	}

	// Parent of survivor i (as survivor index), -1 for the root.
	parent := make([]int, len(surviving))
	for i := range parent {
		parent[i] = -1
	}
	for _, tn := range rtree.Nodes {
		if tn.Parent != nil {
			parent[tn.EdgeID] = tn.Parent.EdgeID
		}
	}

	var build, probe float64
	var sig, tree strings.Builder
	for i, s := range surviving {
		orig := order[atoms[i]] // as-parsed atom index of this survivor
		e := est[orig]
		size := e.setDistinct(s)
		build += size
		if parent[i] < 0 {
			probe += math.Log2(1 + size)
			fmt.Fprintf(&tree, "%d", orig)
		} else {
			shared := intersect(s, surviving[parent[i]])
			width := size / math.Max(1, e.setDistinct(shared))
			probe += math.Log2(1 + math.Max(1, width))
			fmt.Fprintf(&tree, " %d→%d", orig, order[atoms[parent[i]]])
		}
		fmt.Fprintf(&sig, "%d:%v<%d;", orig, s, parent[i])
	}
	return Candidate{
		Order: append([]int(nil), order...),
		Cost:  build + probeWeight*probe,
		Build: build,
		Probe: probe,
		Tree:  "{" + tree.String() + "}",
	}, sig.String(), nil
}

func intersect(a, b []string) []string {
	var out []string
	for _, v := range a {
		for _, w := range b {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// ------------------------------------------------------------------- stats

// atomEst carries the statistics-derived estimates of one instantiated atom.
type atomEst struct {
	// size estimates the instantiated relation's cardinality: the base tuple
	// count divided by the distinct count of every constant-selected or
	// repeated-variable column.
	size float64
	// varDistinct estimates the distinct values of each atom variable.
	varDistinct map[string]float64
}

// setDistinct estimates the distinct combinations of the variable set s in
// this atom: the product of per-variable distinct counts capped by the
// atom's size (mirroring stats.DistinctAt at the variable level).
func (e atomEst) setDistinct(s []string) float64 {
	est := 1.0
	for _, v := range s {
		if d, ok := e.varDistinct[v]; ok {
			est *= d
		}
		if est > e.size {
			return e.size
		}
	}
	return est
}

// atomEstimates derives per-atom estimates from base-relation statistics,
// collected once per distinct relation into cache — the caller's, so one
// planning call shares it across every query it estimates.
func atomEstimates(db *relation.Database, q *query.CQ, cache map[string]*stats.Stats) ([]atomEst, error) {
	out := make([]atomEst, len(q.Body))
	for i, a := range q.Body {
		base, err := db.Relation(a.Relation)
		if err != nil {
			return nil, err
		}
		if base.Arity() != len(a.Terms) {
			return nil, fmt.Errorf("plan: atom %s has %d terms, relation %s has arity %d",
				a, len(a.Terms), a.Relation, base.Arity())
		}
		st, ok := cache[a.Relation]
		if !ok {
			st = stats.CollectRelation(base)
			cache[a.Relation] = st
		}
		out[i] = estimateAtom(a, st)
	}
	return out, nil
}

// estimateAtom derives an atom's size and per-variable distinct estimates
// from its base relation's statistics.
func estimateAtom(a query.Atom, st *stats.Stats) atomEst {
	size := float64(st.Tuples)
	firstPos := make(map[string]int, len(a.Terms))
	for pos, t := range a.Terms {
		if t.IsVar() {
			if _, ok := firstPos[t.Var]; !ok {
				firstPos[t.Var] = pos
				continue
			}
		}
		// A constant selection or a repeated-variable equality filters the
		// base relation by roughly one distinct value of this column.
		size /= math.Max(1, float64(st.Distinct[pos]))
	}
	if st.Tuples > 0 && size < 1 {
		size = 1
	}
	vd := make(map[string]float64, len(firstPos))
	for v, pos := range firstPos {
		d := math.Max(1, float64(st.Distinct[pos]))
		if d > size && size > 0 {
			d = size
		}
		vd[v] = d
	}
	return atomEst{size: size, varDistinct: vd}
}

// ---------------------------------------------------------------------- UCQ

// ChooseUCQ plans a union's disjunct order. Only disjuncts 1..n-1 are
// permuted: the first disjunct's head names the union's output columns, so
// keeping it fixed keeps the public Head() (and every wire response's
// column naming) identical while still letting large disjuncts move forward.
// The cost model is the expected scan depth of mc-UCQ position resolution —
// position j is resolved by walking disjunct ranges in order, so putting
// heavy disjuncts early serves most probes with a shallow walk. The caller
// must fall back to the as-parsed order if the reordered union fails
// mc-compatibility (order compatibility is checked by the real build).
func ChooseUCQ(db *relation.Database, u *query.UCQ, mode Mode) (*query.UCQ, *Plan, error) {
	t0 := time.Now()
	p := &Plan{Kind: "ucq", Mode: mode}
	n := len(u.Disjuncts)

	// Estimated mass of each disjunct: the sum of its atoms' estimated
	// instantiated sizes (a proxy for both its answer count and probe work).
	// One statistics cache for the whole union: disjuncts mostly range over
	// the same base relations.
	mass := make([]float64, n)
	cache := make(map[string]*stats.Stats)
	for i, d := range u.Disjuncts {
		est, err := atomEstimates(db, d, cache)
		if err != nil {
			return u, nil, err
		}
		for _, e := range est {
			mass[i] += e.size
		}
	}

	seen := make(map[string]bool)
	best, bestCost := 0, math.Inf(1)
	for _, order := range disjunctOrders(n, mass) {
		p.Enumerated++
		sig := fmt.Sprint(order)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		var cost float64
		var tree strings.Builder
		for depth, o := range order {
			cost += float64(depth+1) * mass[o]
			if depth > 0 {
				tree.WriteByte(' ')
			}
			fmt.Fprintf(&tree, "%d", o)
		}
		c := Candidate{
			Order: append([]int(nil), order...),
			Cost:  cost,
			Probe: cost,
			Tree:  "{" + tree.String() + "}",
		}
		if len(p.Candidates) >= maxCandidates {
			break
		}
		p.Candidates = append(p.Candidates, c)
		if cost < bestCost {
			best, bestCost = len(p.Candidates)-1, cost
		}
	}
	p.Chosen = best
	p.Duration = time.Since(t0)
	if p.Identity() {
		return u, p, nil
	}
	order := p.Candidates[best].Order
	djs := make([]*query.CQ, n)
	for i, o := range order {
		djs[i] = u.Disjuncts[o]
	}
	return &query.UCQ{Name: u.Name, Disjuncts: djs}, p, nil
}

// disjunctOrders yields candidate disjunct orders with disjunct 0 fixed:
// all (n-1)! tail permutations for small unions, else identity plus the
// mass-sorted tails.
func disjunctOrders(n int, mass []float64) [][]int {
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if n <= 2 {
		return [][]int{identity}
	}
	var orders [][]int
	if n-1 <= maxExactAtoms {
		for _, tail := range permutations(n - 1) {
			o := make([]int, n)
			for i, t := range tail {
				o[i+1] = t + 1
			}
			orders = append(orders, o)
		}
		return orders
	}
	orders = append(orders, identity)
	for _, desc := range []bool{true, false} {
		o := append([]int(nil), identity...)
		tail := o[1:]
		sort.SliceStable(tail, func(a, b int) bool {
			if desc {
				return mass[tail[a]] > mass[tail[b]]
			}
			return mass[tail[a]] < mass[tail[b]]
		})
		orders = append(orders, o)
	}
	return orders
}
