// Package shard partitions a conjunctive query's answer space into K
// disjoint pieces served by independent access.Index instances behind one
// global position space. It is the in-process partition the benchmark's
// shard.locate_ns and shard.access_ns rungs time; every served shard is a
// renum.SliceView position window instead.
//
// The enumeration order of access.Index is root-major: the answers extended
// from root tuple t are contiguous, and root tuples appear in relation
// order (the root's bucket key is empty, so all of its tuples share bucket
// 0 and the stable counting sort preserves relation order). Slicing the
// root relation into K contiguous row windows therefore slices the global
// answer sequence into K contiguous position windows, and concatenating the
// shards in shard order reproduces the unsharded order. Build runs the
// reduction once, then clones the join tree K times with the root relation
// replaced by a zero-copy column window; per-shard answer counts form a
// prefix-sum table (internal/fenwick), so a global position routes to its
// shard in O(log K).
package shard

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/fenwick"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
)

// Set is K access.Index shards composed behind one global position space.
// Like the indexes it wraps, a Set is immutable after Build and safe for
// concurrent probes without locking.
type Set struct {
	head   []string
	shards []*access.Index
	tree   *fenwick.Tree // per-shard answer counts, in shard order
	starts []int64       // starts[i]: global position of shard i's first answer
	count  int64
}

// Build partitions q's answers over db into k contiguous shards and builds
// the per-shard indexes, fanning the builds out across the worker budget
// (each shard's build itself uses the wave-scheduled parallel builder with
// its share of the budget). k must be >= 1; k = 1 degenerates to a single
// index behind the Set surface.
func Build(db *relation.Database, q *query.CQ, k int, reduceOpts reduce.Options, buildOpts access.BuildOptions) (*Set, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: K must be >= 1, got %d", k)
	}
	if reduceOpts.Workers == 0 {
		reduceOpts.Workers = buildOpts.Workers
	}
	// One reduction for every shard: the full reduce applies set semantics
	// exactly once, so the contiguous root windows below partition the
	// already-deduplicated answer space.
	fj, err := reduce.BuildFullJoin(db, q, reduceOpts)
	if err != nil {
		return nil, err
	}
	n := fj.Root.Rel.Len()
	chunks := make([]*reduce.FullJoin, k)
	for i := range chunks {
		if chunks[i], err = sliceFullJoin(fj, i*n/k, (i+1)*n/k); err != nil {
			return nil, err
		}
	}

	// Shard builds are independent: fan them out, splitting the worker
	// budget between the outer fleet and each shard's wave-parallel build.
	workers := buildOpts.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	outer := min(k, workers)
	inner := buildOpts
	inner.Workers = max(workers/outer, 1)
	indexes := make([]*access.Index, k)
	if err := parallel.ForEach(k, outer, func(i int) error {
		idx, err := access.NewWithOptions(chunks[i], inner)
		if err != nil {
			return err
		}
		indexes[i] = idx
		return nil
	}); err != nil {
		return nil, err
	}

	s := &Set{head: fj.Head, shards: indexes}
	counts := make([]int64, k)
	s.starts = make([]int64, k+1)
	for i, idx := range indexes {
		counts[i] = idx.Count()
		if counts[i] > math.MaxInt64-s.starts[i] {
			// Every shard fits, their sum — the unsharded count — does not.
			return nil, fmt.Errorf("shard: %w", access.ErrCountOverflow)
		}
		s.starts[i+1] = s.starts[i] + counts[i]
	}
	s.tree = fenwick.New(counts)
	s.count = s.tree.Total()
	return s, nil
}

// sliceFullJoin clones fj's node tree with the root relation replaced by
// the zero-copy column window [lo, hi). Non-root relations are shared: the
// access builder only reads them (GroupBy returns fresh groupings), so
// concurrent shard builds over the same children are race-free.
func sliceFullJoin(fj *reduce.FullJoin, lo, hi int) (*reduce.FullJoin, error) {
	root := fj.Root.Rel
	cols := make([][]relation.Value, root.Arity())
	for a := range cols {
		cols[a] = root.Col(a)[lo:hi]
	}
	chunk, err := relation.FromColumns(root.Name(), root.Schema(), cols)
	if err != nil {
		return nil, err
	}
	// The access builder identifies nodes by pointer (root = nil Parent,
	// edges from Parent links, fj.Nodes order), so the clone preserves all
	// three while swapping the root's relation.
	clone := make(map[*reduce.Node]*reduce.Node, len(fj.Nodes))
	for _, fn := range fj.Nodes {
		rel := fn.Rel
		if fn == fj.Root {
			rel = chunk
		}
		clone[fn] = &reduce.Node{Rel: rel}
	}
	out := &reduce.FullJoin{Head: fj.Head, Root: clone[fj.Root]}
	for _, fn := range fj.Nodes {
		c := clone[fn]
		if fn.Parent != nil {
			c.Parent = clone[fn.Parent]
			c.Parent.Children = append(c.Parent.Children, c)
		}
		out.Nodes = append(out.Nodes, c)
	}
	return out, nil
}

// Head returns the output variable order (identical across shards).
func (s *Set) Head() []string { return s.head }

// Count returns the global answer count in constant time.
func (s *Set) Count() int64 { return s.count }

// Locate routes a global position to (shard, local position) in O(log K).
func (s *Set) Locate(j int64) (shard int, local int64, err error) {
	if j < 0 || j >= s.count {
		return 0, 0, access.ErrOutOfBounds
	}
	shard = s.tree.FindPrefix(j)
	return shard, j - s.starts[shard], nil
}

// AccessInto writes the j-th answer of the global enumeration order — the
// unsharded index's order — into buf, or fails with ErrOutOfBounds; the
// routing adds one O(log K) Fenwick walk to the shard probe and no
// allocation.
func (s *Set) AccessInto(j int64, buf relation.Tuple) error {
	sh, local, err := s.Locate(j)
	if err != nil {
		return err
	}
	return s.shards[sh].AccessInto(local, buf)
}
