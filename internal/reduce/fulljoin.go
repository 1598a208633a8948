package reduce

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/relation"
)

// ErrCyclic is returned when the query's hypergraph is cyclic.
var ErrCyclic = errors.New("reduce: query is cyclic")

// ErrNotFreeConnex is returned when the query is acyclic but not free-connex,
// i.e. existential variables cannot be eliminated in linear time.
var ErrNotFreeConnex = errors.New("reduce: query is not free-connex")

// Node is a node of the reduced full-join tree. Its relation's schema
// consists of head variables only.
type Node struct {
	Rel      *relation.Relation
	Parent   *Node
	Children []*Node
}

// FullJoin is the output of Proposition 4.2: a rooted join tree of relations
// over head variables whose natural join equals Q(D), with each answer
// produced by exactly one combination of tuples (one per node).
type FullJoin struct {
	// Head is the output variable order (the CQ's head).
	Head []string
	// Root is the root of the join tree.
	Root *Node
	// Nodes lists all nodes in a deterministic order (the order in which the
	// surviving atoms appeared in the query body).
	Nodes []*Node
}

// Options tunes BuildFullJoin.
type Options struct {
	// SkipFullReduce skips the Yannakakis semijoin sweeps. The construction
	// stays correct (dangling tuples receive weight zero in the access index)
	// but preprocessing does less work up front and the index holds dead
	// tuples. Exposed for the ablation benchmarks.
	SkipFullReduce bool

	// CanonicalOrder sorts every node relation lexicographically before the
	// index is built, making the enumeration order of Access(j) depend only
	// on the data *content*, not on tuple ingestion order. Sorting costs
	// O(n log n), so preprocessing is no longer strictly linear. Structural
	// compatibility between aligned queries (Section 5.2) is preserved:
	// sorted order-preserving subsets stay order-preserving.
	CanonicalOrder bool

	// Observe, when set, receives the time of each stage of BuildFullJoin,
	// once per call and in this order: "instantiate" (the atoms' relations),
	// "semijoin" (the atoms' join tree and both Yannakakis sweeps) and
	// "eliminate" (protected GYO elimination, then CanonicalOrder's sort).
	// The survivors' membership indexes are the access index's to build
	// (its "member_index" stage).
	Observe func(stage string, d time.Duration)
}

// BuildFullJoin implements Proposition 4.2. It returns ErrCyclic or
// ErrNotFreeConnex (wrapped with context) for queries outside the supported
// class.
func BuildFullJoin(db *relation.Database, q *query.CQ, opts Options) (*FullJoin, error) {
	t0 := time.Now()
	lap := func(stage string) {
		if opts.Observe != nil {
			now := time.Now()
			opts.Observe(stage, now.Sub(t0))
			t0 = now
		}
	}
	rels, err := InstantiateAll(db, q)
	if err != nil {
		return nil, err
	}
	lap("instantiate")

	// Join tree over the original (instantiated) atoms; fails on cyclic.
	h := hypergraph.FromCQ(q)
	tree, err := h.JoinTree()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCyclic, q.Name)
	}
	if !opts.SkipFullReduce {
		if err := FullReduce(tree, rels); err != nil {
			return nil, err
		}
	}
	lap("semijoin")

	// Protected GYO elimination over (schema, relation) items.
	items := make([]*relation.Relation, len(rels))
	copy(items, rels)
	head := q.HeadSet()

	items, err = eliminate(items, head)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNotFreeConnex, q.Name, err)
	}

	if opts.CanonicalOrder {
		for _, r := range items {
			r.SortTuples()
		}
	}
	lap("eliminate")

	// The remainder is a full join over head variables; build its join tree.
	rh := &hypergraph.Hypergraph{}
	for i, r := range items {
		rh.Edges = append(rh.Edges, hypergraph.NewEdge(i, []string(r.Schema())))
	}
	rtree, err := rh.JoinTree()
	if err != nil {
		// Cannot happen for acyclic inputs: both elimination operations are
		// GYO steps and preserve acyclicity. Guard anyway.
		return nil, fmt.Errorf("%w: %s: remainder cyclic", ErrNotFreeConnex, q.Name)
	}

	fj := &FullJoin{Head: append([]string(nil), q.Head...)}
	nodes := make([]*Node, len(items))
	for i, r := range items {
		nodes[i] = &Node{Rel: r}
	}
	for _, tn := range rtree.Nodes {
		if tn.Parent != nil {
			// rtree.Nodes is in edge-index order; EdgeID is the item index.
			nodes[tn.EdgeID].Parent = nodes[tn.Parent.EdgeID]
		}
	}
	for _, n := range nodes {
		if n.Parent != nil {
			n.Parent.Children = append(n.Parent.Children, n)
		} else {
			fj.Root = n
		}
	}
	fj.Nodes = nodes
	return fj, nil
}

// eliminate runs the protected GYO elimination until only head variables
// remain, returning the surviving relations (in original atom order). The two
// operations are:
//
//   - project: drop variables that are existential and occur in exactly one
//     surviving atom (a single-relation projection — linear time);
//   - absorb: if vars(a) ⊆ vars(b) for surviving atoms a ≠ b, replace b by
//     b ⋉ a and drop a (correct unconditionally because the join with a adds
//     no columns beyond b's and acts as a filter on b).
//
// For equal variable sets the later atom is absorbed into the earlier one;
// for strict subsets the subset atom is absorbed into its superset. This
// deterministic policy is what aligns the tree shapes of structurally-equal
// queries (required for mc-UCQ order compatibility, Section 5.2).
func eliminate(items []*relation.Relation, head map[string]bool) ([]*relation.Relation, error) {
	for {
		changed := false

		// Projection pass.
		occurrences := make(map[string]int)
		for _, r := range items {
			for _, v := range r.Schema() {
				occurrences[v]++
			}
		}
		for i, r := range items {
			var keep []string
			for _, v := range r.Schema() {
				if head[v] || occurrences[v] > 1 {
					keep = append(keep, v)
				}
			}
			if len(keep) == r.Arity() {
				continue
			}
			p, err := r.Project(r.Name(), keep)
			if err != nil {
				return nil, err
			}
			items[i] = p
			changed = true
		}

		// One absorption (then restart, so occurrence counts stay fresh).
		absorbed := false
		drop := func(into, j int) {
			items[into].SemijoinWith(items[j])
			items = append(items[:j], items[j+1:]...)
			absorbed = true
		}
		// Equal sets: keep the earlier atom.
		for i := 0; i < len(items) && !absorbed; i++ {
			for j := i + 1; j < len(items); j++ {
				if schemaSubset(items[j].Schema(), items[i].Schema()) {
					drop(i, j)
					break
				}
			}
		}
		// Strict subsets: absorb the subset into its superset.
		for i := 0; i < len(items) && !absorbed; i++ {
			for j := 0; j < len(items); j++ {
				if i != j && schemaSubset(items[i].Schema(), items[j].Schema()) {
					drop(j, i)
					break
				}
			}
		}

		if !changed && !absorbed {
			break
		}
	}

	for _, r := range items {
		for _, v := range r.Schema() {
			if !head[v] {
				return nil, fmt.Errorf("existential variable %q cannot be eliminated", v)
			}
		}
	}
	return items, nil
}

// schemaSubset reports whether every attribute of a occurs in b.
func schemaSubset(a, b relation.Schema) bool {
	for _, v := range a {
		if !b.Contains(v) {
			return false
		}
	}
	return true
}

// Answers materializes the full join by backtracking along the tree (used by
// tests; not part of the enumeration fast path). Answers are produced in the
// enumeration order of the access index built on this tree: for each node,
// tuples in relation order; earlier children are more significant than later
// ones; a child's whole subtree is more significant than its next sibling.
func (fj *FullJoin) Answers() []relation.Tuple {
	type binding = map[string]relation.Value
	var out []relation.Tuple
	emit := func(b binding) {
		t := make(relation.Tuple, len(fj.Head))
		for i, h := range fj.Head {
			t[i] = b[h]
		}
		out = append(out, t)
	}
	// Materialize each node's rows once up front (Tuples copies out of the
	// columns; doing it inside the recursion would re-copy per branch).
	rows := make(map[*Node][]relation.Tuple, len(fj.Nodes))
	for _, n := range fj.Nodes {
		rows[n] = n.Rel.Tuples()
	}
	var recAll func(pending []*Node, b binding)
	recAll = func(pending []*Node, b binding) {
		if len(pending) == 0 {
			emit(b)
			return
		}
		n := pending[0]
		rest := pending[1:]
		schema := n.Rel.Schema()
		for _, tu := range rows[n] {
			ok := true
			for i, v := range schema {
				if val, bound := b[v]; bound && val != tu[i] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			nb := make(binding, len(b)+len(schema))
			for k, v := range b {
				nb[k] = v
			}
			for i, v := range schema {
				nb[v] = tu[i]
			}
			recAll(append(append([]*Node(nil), n.Children...), rest...), nb)
		}
	}
	if fj.Root != nil {
		recAll([]*Node{fj.Root}, binding{})
	}
	return out
}
