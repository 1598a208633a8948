package hypergraph

import (
	"math/rand"
	"testing"

	"repro/internal/query"
)

func cq(head []string, body ...query.Atom) *query.CQ {
	return query.MustCQ("q", head, body...)
}

func TestAcyclicChain(t *testing.T) {
	q := cq([]string{"x", "y", "z"},
		query.NewAtom("R", query.V("x"), query.V("y")),
		query.NewAtom("S", query.V("y"), query.V("z")),
	)
	if !IsAcyclicCQ(q) {
		t.Fatal("chain join reported cyclic")
	}
}

func TestCyclicTriangle(t *testing.T) {
	q := cq([]string{"x"},
		query.NewAtom("R", query.V("x"), query.V("y")),
		query.NewAtom("S", query.V("y"), query.V("z")),
		query.NewAtom("T", query.V("x"), query.V("z")),
	)
	if IsAcyclicCQ(q) {
		t.Fatal("triangle reported acyclic")
	}
}

func TestAcyclicTriangleWithCover(t *testing.T) {
	// Adding an edge covering the triangle makes it α-acyclic.
	h := &Hypergraph{Edges: []Edge{
		NewEdge(0, []string{"x", "y"}),
		NewEdge(1, []string{"y", "z"}),
		NewEdge(2, []string{"x", "z"}),
		NewEdge(3, []string{"x", "y", "z"}),
	}}
	if !h.IsAcyclic() {
		t.Fatal("covered triangle must be α-acyclic")
	}
	tree, err := h.JoinTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicSquare(t *testing.T) {
	h := &Hypergraph{Edges: []Edge{
		NewEdge(0, []string{"a", "b"}),
		NewEdge(1, []string{"b", "c"}),
		NewEdge(2, []string{"c", "d"}),
		NewEdge(3, []string{"d", "a"}),
	}}
	if h.IsAcyclic() {
		t.Fatal("4-cycle reported acyclic")
	}
}

func TestDisconnectedAcyclic(t *testing.T) {
	q := cq([]string{"x", "y"},
		query.NewAtom("R", query.V("x")),
		query.NewAtom("S", query.V("y")),
	)
	if !IsAcyclicCQ(q) {
		t.Fatal("disconnected (cross product) must be acyclic")
	}
	tree, err := FromCQ(q).JoinTree()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root == nil || len(tree.Nodes) != 2 {
		t.Fatal("bad tree for cross product")
	}
	if err := tree.Validate(FromCQ(q)); err != nil {
		t.Fatal(err)
	}
}

func TestJoinTreeValidOnExamples(t *testing.T) {
	// Example 4.4 of the paper: R1(v,w,x), R2(v,y), R3(w,z).
	q := cq([]string{"v", "w", "x", "y", "z"},
		query.NewAtom("R1", query.V("v"), query.V("w"), query.V("x")),
		query.NewAtom("R2", query.V("v"), query.V("y")),
		query.NewAtom("R3", query.V("w"), query.V("z")),
	)
	h := FromCQ(q)
	tree, err := h.JoinTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestFreeConnexClassification(t *testing.T) {
	cases := []struct {
		name string
		q    *query.CQ
		want bool
	}{
		{
			// Full acyclic join: trivially free-connex.
			"full-chain",
			cq([]string{"x", "y", "z"},
				query.NewAtom("R", query.V("x"), query.V("y")),
				query.NewAtom("S", query.V("y"), query.V("z"))),
			true,
		},
		{
			// The classic non-free-connex acyclic query (matrix multiplication).
			"projected-chain",
			cq([]string{"x", "z"},
				query.NewAtom("R", query.V("x"), query.V("y")),
				query.NewAtom("S", query.V("y"), query.V("z"))),
			false,
		},
		{
			"single-projection",
			cq([]string{"x"},
				query.NewAtom("R", query.V("x"), query.V("y"))),
			true,
		},
		{
			"existential-tail",
			cq([]string{"x", "y"},
				query.NewAtom("R", query.V("x"), query.V("y")),
				query.NewAtom("S", query.V("y"), query.V("z")),
				query.NewAtom("T", query.V("z"), query.V("w"))),
			true,
		},
		{
			"cyclic",
			cq([]string{"x", "y", "z"},
				query.NewAtom("R", query.V("x"), query.V("y")),
				query.NewAtom("S", query.V("y"), query.V("z")),
				query.NewAtom("T", query.V("x"), query.V("z"))),
			false,
		},
		{
			// Star query with projection onto the center: free-connex.
			"star-center",
			cq([]string{"x"},
				query.NewAtom("R", query.V("x"), query.V("a")),
				query.NewAtom("S", query.V("x"), query.V("b")),
				query.NewAtom("T", query.V("x"), query.V("c"))),
			true,
		},
		{
			// Star projected onto the leaves: head edge {a,b} with body
			// R(x,a), S(x,b) — H+head is cyclic.
			"star-leaves",
			cq([]string{"a", "b"},
				query.NewAtom("R", query.V("x"), query.V("a")),
				query.NewAtom("S", query.V("x"), query.V("b"))),
			false,
		},
		{
			// Boolean query.
			"boolean",
			cq(nil,
				query.NewAtom("R", query.V("x"), query.V("y")),
				query.NewAtom("S", query.V("y"), query.V("z"))),
			true,
		},
	}
	for _, c := range cases {
		if got := IsFreeConnex(c.q); got != c.want {
			t.Errorf("%s: IsFreeConnex = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQ7StructureIsFreeConnex(t *testing.T) {
	// The paper's Q7 (with a self-join on nation) must be free-connex.
	q := query.MustCQ("Q7",
		[]string{"ok", "ck", "nk1", "sk", "lpk", "ln", "nk2"},
		query.NewAtom("supplier", query.V("sk"), query.V("sn"), query.V("nk1")),
		query.NewAtom("lineitem", query.V("ok"), query.V("lpk"), query.V("sk"), query.V("ln")),
		query.NewAtom("orders", query.V("ok"), query.V("ck")),
		query.NewAtom("customer", query.V("ck"), query.V("cn"), query.V("nk2")),
		query.NewAtom("nation", query.V("nk1"), query.V("nn1"), query.V("rk1")),
		query.NewAtom("nation", query.V("nk2"), query.V("nn2"), query.V("rk2")),
	)
	if !IsFreeConnex(q) {
		t.Fatal("Q7 must be free-connex")
	}
}

// TestJoinTreeValidRandom cross-checks GYO against the join-tree property on
// random acyclic-ish hypergraphs: whenever JoinTree succeeds, the result must
// satisfy the join-tree property.
func TestJoinTreeValidRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	varNames := []string{"a", "b", "c", "d", "e", "f"}
	accepted := 0
	for iter := 0; iter < 2000; iter++ {
		ne := 2 + rng.Intn(4)
		h := &Hypergraph{}
		for i := 0; i < ne; i++ {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(varNames))[:k]
			vars := make([]string, k)
			for j, p := range perm {
				vars[j] = varNames[p]
			}
			h.Edges = append(h.Edges, NewEdge(i, vars))
		}
		tree, err := h.JoinTree()
		if err != nil {
			continue
		}
		accepted++
		if err := tree.Validate(h); err != nil {
			t.Fatalf("iteration %d: invalid join tree: %v (edges %v)", iter, err, h.Edges)
		}
	}
	if accepted == 0 {
		t.Fatal("no acyclic instances generated; test is vacuous")
	}
}

// bruteForceAcyclic checks α-acyclicity by exhaustive search over all rooted
// trees on the edges (only feasible for tiny hypergraphs); used to validate
// GYO. A hypergraph is α-acyclic iff some tree over its edges satisfies the
// join-tree property.
func bruteForceAcyclic(h *Hypergraph) bool {
	n := len(h.Edges)
	if n == 1 {
		return true
	}
	if n > 5 {
		panic("too large for brute force")
	}
	parents := make([]int, n)

	checkTree := func(root int) bool {
		// Reject parent graphs with cycles (every non-root must reach root).
		for j := 0; j < n; j++ {
			if j == root {
				continue
			}
			k, steps := j, 0
			for k != root {
				k = parents[k]
				if steps++; steps > n {
					return false
				}
			}
		}
		nodes := make([]*TreeNode, n)
		for j := range nodes {
			nodes[j] = &TreeNode{EdgeID: h.Edges[j].ID, Vars: h.Edges[j].Vars}
		}
		for j := 0; j < n; j++ {
			if j == root {
				continue
			}
			nodes[j].Parent = nodes[parents[j]]
			nodes[parents[j]].Children = append(nodes[parents[j]].Children, nodes[j])
		}
		tr := &Tree{Root: nodes[root], Nodes: nodes}
		return tr.Validate(h) == nil
	}

	for root := 0; root < n; root++ {
		// Enumerate all parent assignments for the non-root nodes.
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == n {
				return checkTree(root)
			}
			if i == root {
				return rec(i + 1)
			}
			for p := 0; p < n; p++ {
				if p == i {
					continue
				}
				parents[i] = p
				if rec(i + 1) {
					return true
				}
			}
			return false
		}
		if rec(0) {
			return true
		}
	}
	return false
}

func TestGYOMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	varNames := []string{"a", "b", "c", "d", "e"}
	for iter := 0; iter < 500; iter++ {
		ne := 2 + rng.Intn(3) // 2..4 edges
		h := &Hypergraph{}
		for i := 0; i < ne; i++ {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(varNames))[:k]
			vars := make([]string, k)
			for j, p := range perm {
				vars[j] = varNames[p]
			}
			h.Edges = append(h.Edges, NewEdge(i, vars))
		}
		gyo := h.IsAcyclic()
		brute := bruteForceAcyclic(h)
		if gyo != brute {
			t.Fatalf("iteration %d: GYO=%v brute=%v for edges %v", iter, gyo, brute, h.Edges)
		}
	}
}

func TestWithHeadEdgeDoesNotMutate(t *testing.T) {
	h := &Hypergraph{Edges: []Edge{NewEdge(0, []string{"x", "y"})}}
	h2 := h.WithHeadEdge([]string{"x"})
	if len(h.Edges) != 1 || len(h2.Edges) != 2 {
		t.Fatal("WithHeadEdge mutated the receiver or failed to extend")
	}
	if h2.Edges[1].ID != -1 || !h2.Edges[1].Vars["x"] {
		t.Fatal("head edge malformed")
	}
}
