// Package fenwick implements a binary indexed tree (Fenwick tree) over
// int64, supporting point updates, prefix sums, and logarithmic prefix
// search — the substrate for the dynamic variant of the paper's
// random-access index (internal/dynaccess), where per-tuple weights change
// under updates and the static prefix-sum arrays of Algorithm 2 no longer
// suffice.
package fenwick

// Tree is a Fenwick tree over positions 0..Len()-1. The zero value is an
// empty tree ready for Append.
type Tree struct {
	// tree[i] covers a range ending at position i (1-based internally).
	tree []int64
	vals []int64
	sum  int64
}

// New returns a tree initialized with a copy of the given values.
func New(values []int64) *Tree {
	t := Over(append([]int64(nil), values...), make([]int64, len(values)))
	return &t
}

// Over returns the tree over vals, built in linear time. The tree adopts
// both slices: vals as its value array and tree, of the same length and
// overwritten, as its internal array — so a bulk loader can carve many small
// trees out of two arenas. Pieces must be capacity-capped (s[i:j:j]): Append
// then reallocates instead of growing into the neighbour.
func Over(vals, tree []int64) Tree {
	copy(tree, vals)
	var sum int64
	for i, v := range vals {
		sum += v
		// Node i (0-based) is complete once its children, all below it,
		// have been folded in; pass it on to its own parent.
		if p := i | (i + 1); p < len(tree) {
			tree[p] += tree[i]
		}
	}
	return Tree{tree: tree, vals: vals, sum: sum}
}

// Len returns the number of positions.
func (t *Tree) Len() int { return len(t.vals) }

// Total returns the sum of all values in constant time.
func (t *Tree) Total() int64 { return t.sum }

// Value returns the value at position i.
func (t *Tree) Value(i int) int64 { return t.vals[i] }

// Append adds a new position holding v at the end (amortized O(log n)).
func (t *Tree) Append(v int64) {
	t.vals = append(t.vals, v)
	t.tree = append(t.tree, 0)
	// Initialize the new internal node from already-present prefix sums:
	// tree[i] (1-based i = len) covers (i - lowbit(i), i].
	i := len(t.tree) // 1-based index of the new node
	low := i - (i & -i)
	t.tree[i-1] = t.Prefix(i-1) - t.Prefix(low) + v
	t.sum += v
}

// Set changes the value at position i to v (O(log n)).
func (t *Tree) Set(i int, v int64) {
	t.Add(i, v-t.vals[i])
}

// Add adds delta to the value at position i (O(log n)).
func (t *Tree) Add(i int, delta int64) {
	if delta == 0 {
		return
	}
	t.vals[i] += delta
	t.sum += delta
	for j := i + 1; j <= len(t.tree); j += j & -j {
		t.tree[j-1] += delta
	}
}

// Prefix returns the sum of values at positions 0..n-1 (O(log n)).
func (t *Tree) Prefix(n int) int64 {
	var s int64
	for j := n; j > 0; j -= j & -j {
		s += t.tree[j-1]
	}
	return s
}

// Range returns the sum of positions lo..hi-1.
func (t *Tree) Range(lo, hi int) int64 { return t.Prefix(hi) - t.Prefix(lo) }

// FindPrefix returns the smallest position p such that
// Prefix(p+1) > target, i.e. the position whose value range contains the
// target offset, assuming all values are non-negative. It returns -1 when
// target ≥ Total(). O(log n).
func (t *Tree) FindPrefix(target int64) int {
	p, _ := t.Find(target)
	return p
}

// Find is FindPrefix also returning the offset inside the found position's
// range, target − Prefix(p) — the one descent computes both.
func (t *Tree) Find(target int64) (p int, rem int64) {
	if target < 0 || target >= t.sum {
		return -1, 0
	}
	pos := 0 // 1-based position walked so far
	// Highest power of two ≤ len.
	bit := 1
	for bit<<1 <= len(t.tree) {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := pos + bit
		if next <= len(t.tree) && t.tree[next-1] <= target {
			target -= t.tree[next-1]
			pos = next
		}
	}
	return pos, target // 0-based position = pos (the walk stops before the answer)
}
