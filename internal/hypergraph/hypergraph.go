// Package hypergraph implements the hypergraph machinery of Section 2 of the
// paper: the hypergraph H_Q of a CQ, the GYO ear-reduction test for
// α-acyclicity, join-tree construction, and the free-connex test (H_Q stays
// acyclic after adding a hyperedge consisting of the free variables).
//
// All algorithms here run on the query alone (constant size under data
// complexity), so simple quadratic scans are used for clarity.
package hypergraph

import (
	"fmt"

	"repro/internal/query"
)

// Edge is a hyperedge: a set of variables with a stable identifier. For edges
// derived from a CQ, ID is the index of the atom in the body; virtual edges
// (such as the head edge used by the free-connex test) use negative IDs.
type Edge struct {
	ID   int
	Vars map[string]bool
}

// NewEdge builds an edge from a variable list.
func NewEdge(id int, vars []string) Edge {
	m := make(map[string]bool, len(vars))
	for _, v := range vars {
		m[v] = true
	}
	return Edge{ID: id, Vars: m}
}

// Hypergraph is an ordered list of edges. Order matters: the GYO reduction
// processes edges in index order, which makes join-tree construction
// deterministic — a property the mc-UCQ compatible-order construction relies
// on (Section 5.2).
type Hypergraph struct {
	Edges []Edge
}

// FromCQ builds the hypergraph of a CQ: one edge per atom, containing the
// atom's variables (constants contribute nothing).
func FromCQ(q *query.CQ) *Hypergraph {
	h := &Hypergraph{}
	for i, a := range q.Body {
		h.Edges = append(h.Edges, NewEdge(i, a.Vars()))
	}
	return h
}

// WithHeadEdge returns a copy of h extended with a virtual edge (ID -1) made
// of the CQ's head variables, as used by the free-connex definition.
func (h *Hypergraph) WithHeadEdge(head []string) *Hypergraph {
	out := &Hypergraph{Edges: make([]Edge, len(h.Edges), len(h.Edges)+1)}
	copy(out.Edges, h.Edges)
	out.Edges = append(out.Edges, NewEdge(-1, head))
	return out
}

// TreeNode is a node of a join tree. EdgeID identifies the originating edge.
type TreeNode struct {
	EdgeID   int
	Vars     map[string]bool
	Parent   *TreeNode
	Children []*TreeNode
}

// Tree is a rooted join tree: nodes(T) = edges(H), and for every variable v
// the nodes containing v form a connected subtree.
type Tree struct {
	Root  *TreeNode
	Nodes []*TreeNode // in edge-index order of the source hypergraph
}

// IsAcyclic reports whether the hypergraph is α-acyclic (GYO reduction
// succeeds).
func (h *Hypergraph) IsAcyclic() bool {
	_, err := h.JoinTree()
	return err == nil
}

// JoinTree runs the GYO ear-reduction and returns a join tree, or an error if
// the hypergraph is cyclic. The reduction is deterministic: at every round the
// highest-index removable ear is removed, and its parent is the lowest-index
// witness covering its shared vertices; an ear whose vertices are all
// isolated attaches to the lowest-index surviving edge so the tree stays
// connected. Determinism of the tree shape is required by the mc-UCQ
// compatible-order construction (Section 5.2).
func (h *Hypergraph) JoinTree() (*Tree, error) {
	n := len(h.Edges)
	if n == 0 {
		return nil, fmt.Errorf("hypergraph: no edges")
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	remaining := n

	// occurrences counts, across alive edges, how many edges contain each var.
	occurrences := func(v string) int {
		c := 0
		for i, e := range h.Edges {
			if alive[i] && e.Vars[v] {
				c++
			}
		}
		return c
	}

	for remaining > 1 {
		removed := false
		// Scan ears from the highest index down so that earlier edges
		// survive longer; in particular, when the first atom can be the
		// root, it is (matching the paper's Example 4.4 convention).
		for i := len(h.Edges) - 1; i >= 0; i-- {
			e := h.Edges[i]
			if !alive[i] {
				continue
			}
			// Non-isolated vertices of e: those shared with another alive edge.
			var shared []string
			for v := range e.Vars {
				if occurrences(v) > 1 {
					shared = append(shared, v)
				}
			}
			// Find the lowest-index alive witness covering all shared vars.
			witness := -1
			for j, f := range h.Edges {
				if j == i || !alive[j] {
					continue
				}
				covers := true
				for _, v := range shared {
					if !f.Vars[v] {
						covers = false
						break
					}
				}
				if covers {
					witness = j
					break
				}
			}
			if witness < 0 {
				continue
			}
			parent[i] = witness
			alive[i] = false
			remaining--
			removed = true
			break
		}
		if !removed {
			return nil, fmt.Errorf("hypergraph: cyclic (GYO reduction stuck with %d edges)", remaining)
		}
	}

	// Build the tree. The single alive edge is the root.
	nodes := make([]*TreeNode, n)
	for i, e := range h.Edges {
		vars := make(map[string]bool, len(e.Vars))
		for v := range e.Vars {
			vars[v] = true
		}
		nodes[i] = &TreeNode{EdgeID: e.ID, Vars: vars}
	}
	var root *TreeNode
	for i := range h.Edges {
		if parent[i] < 0 {
			root = nodes[i]
		} else {
			nodes[i].Parent = nodes[parent[i]]
		}
	}
	// Children in edge-index order (determinism).
	for i := range h.Edges {
		if parent[i] >= 0 {
			nodes[parent[i]].Children = append(nodes[parent[i]].Children, nodes[i])
		}
	}
	return &Tree{Root: root, Nodes: nodes}, nil
}

// IsAcyclicCQ reports whether the CQ's hypergraph is α-acyclic.
func IsAcyclicCQ(q *query.CQ) bool {
	return FromCQ(q).IsAcyclic()
}

// IsFreeConnex implements the paper's definition: Q is free-connex if Q is
// acyclic and H_Q extended with a hyperedge of the free variables is acyclic.
func IsFreeConnex(q *query.CQ) bool {
	h := FromCQ(q)
	if !h.IsAcyclic() {
		return false
	}
	return h.WithHeadEdge(q.Head).IsAcyclic()
}

// Validate checks the join-tree property of t against the hypergraph h (used
// by tests): node vars match edges, and every variable's occurrence set is
// connected in t.
func (t *Tree) Validate(h *Hypergraph) error {
	if len(t.Nodes) != len(h.Edges) {
		return fmt.Errorf("join tree: %d nodes for %d edges", len(t.Nodes), len(h.Edges))
	}
	vars := make(map[string][]*TreeNode)
	for i, node := range t.Nodes {
		if len(node.Vars) != len(h.Edges[i].Vars) {
			return fmt.Errorf("join tree: node %d vars mismatch", i)
		}
		for v := range node.Vars {
			if !h.Edges[i].Vars[v] {
				return fmt.Errorf("join tree: node %d has alien var %s", i, v)
			}
			vars[v] = append(vars[v], node)
		}
	}
	// Connectivity per variable: the nodes containing v, minus one
	// representative, must each have a parent chain within the set.
	for v, occ := range vars {
		if len(occ) <= 1 {
			continue
		}
		in := make(map[*TreeNode]bool, len(occ))
		for _, n := range occ {
			in[n] = true
		}
		// The subgraph induced on `in` must be connected: count nodes whose
		// parent is not in the set; exactly one (the subtree top) is allowed.
		tops := 0
		for _, n := range occ {
			if n.Parent == nil || !in[n.Parent] {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("join tree: variable %s occurs in %d disconnected components", v, tops)
		}
	}
	return nil
}
