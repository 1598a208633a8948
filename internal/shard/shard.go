// Package shard partitions a conjunctive query's answer space into K
// disjoint pieces served by independent access.Index instances, composed
// behind one probe surface with the same disjoint-partition counting trick
// internal/mcucq uses across union disjuncts.
//
// # Partitioning scheme
//
// The enumeration order of access.Index is root-major: the answers extended
// from root tuple t are contiguous, and root tuples appear in relation
// order (the root's bucket key is empty, so all of its tuples share bucket
// 0 and the stable counting sort preserves relation order). Slicing the
// root relation into K contiguous row windows therefore slices the global
// answer sequence into K contiguous position windows: concatenating the
// shards' enumerations in shard order reproduces the unsharded order
// byte-for-byte. That is the whole determinism argument — no merge, no
// re-sort, just concatenation.
//
// Build runs the reduction ONCE (set semantics are applied once, so no
// duplicate can resurface from partitioning), then clones the join tree K
// times with the root relation replaced by a zero-copy column window.
// Non-root relations are shared across shards; only the per-shard bucket
// tables are built K times.
//
// # Routing
//
// Per-shard answer counts form a prefix-sum table (internal/fenwick), so a
// global position routes to its shard in O(log K); batches split their
// position vectors per shard and fan out on internal/parallel, scattering
// results back into request order.
package shard

import (
	"context"
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
	fj     *reduce.FullJoin // the single reduction all shards slice
	bounds [][2]int         // root-row window [lo, hi) per shard
}

// Build partitions q's answers over db into k contiguous shards and builds
// the per-shard indexes, fanning the builds out across the worker budget
// (each shard's build itself uses the wave-scheduled parallel builder with
// its share of the budget). k must be >= 1; k = 1 degenerates to a single
// index behind the Set surface.
func Build(db *relation.Database, q *query.CQ, k int, reduceOpts reduce.Options, buildOpts access.BuildOptions) (*Set, error) {
	return build(db, q, 0, k, true, reduceOpts, buildOpts)
}

// BuildSlice builds only shard `slice` of the k-way partition, as a
// single-shard Set over LOCAL positions 0..count-1. It is the shard
// daemon's constructor: each daemon serves its own window, and the router
// re-bases local positions onto the global order from the shards' counts.
func BuildSlice(db *relation.Database, q *query.CQ, slice, k int, reduceOpts reduce.Options, buildOpts access.BuildOptions) (*Set, error) {
	if slice < 0 || slice >= k {
		return nil, fmt.Errorf("shard: slice %d out of range [0, %d)", slice, k)
	}
	return build(db, q, slice, k, false, reduceOpts, buildOpts)
}

func build(db *relation.Database, q *query.CQ, slice, k int, all bool, reduceOpts reduce.Options, buildOpts access.BuildOptions) (*Set, error) {
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
	lo := 0
	hi := k
	if !all {
		lo, hi = slice, slice+1
	}
	n := fj.Root.Rel.Len()
	bounds := make([][2]int, 0, hi-lo)
	chunks := make([]*reduce.FullJoin, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rowLo, rowHi := i*n/k, (i+1)*n/k
		chunk, err := sliceFullJoin(fj, rowLo, rowHi)
		if err != nil {
			return nil, err
		}
		bounds = append(bounds, [2]int{rowLo, rowHi})
		chunks = append(chunks, chunk)
	}

	// Shard builds are independent: fan them out, splitting the worker
	// budget between the outer fleet and each shard's wave-parallel build.
	workers := buildOpts.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	outer := len(chunks)
	if outer > workers {
		outer = workers
	}
	inner := buildOpts
	inner.Workers = workers / outer
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	indexes := make([]*access.Index, len(chunks))
	if err := parallel.ForEach(len(chunks), outer, func(i int) error {
		idx, err := access.NewWithOptions(chunks[i], inner)
		if err != nil {
			return err
		}
		indexes[i] = idx
		return nil
	}); err != nil {
		return nil, err
	}

	s := &Set{head: fj.Head, shards: indexes, fj: fj, bounds: bounds}
	counts := make([]int64, len(indexes))
	s.starts = make([]int64, len(indexes)+1)
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

// NumShards returns K (1 for a BuildSlice set).
func (s *Set) NumShards() int { return len(s.shards) }

// ShardCount returns shard i's answer count.
func (s *Set) ShardCount(i int) int64 { return s.tree.Value(i) }

// Bounds returns shard i's root-row window [lo, hi).
func (s *Set) Bounds(i int) (lo, hi int) { return s.bounds[i][0], s.bounds[i][1] }

// FullJoin exposes the single reduction backing every shard (plan
// rendering; nil only for a zero Set).
func (s *Set) FullJoin() *reduce.FullJoin { return s.fj }

// Locate routes a global position to (shard, local position) in O(log K).
func (s *Set) Locate(j int64) (shard int, local int64, err error) {
	if j < 0 || j >= s.count {
		return 0, 0, access.ErrOutOfBounds
	}
	shard = s.tree.FindPrefix(j)
	return shard, j - s.starts[shard], nil
}

// Access returns the j-th answer of the global enumeration order — the
// byte-identical order of the unsharded index — or ErrOutOfBounds.
func (s *Set) Access(j int64) (relation.Tuple, error) {
	sh, local, err := s.Locate(j)
	if err != nil {
		return nil, err
	}
	return s.shards[sh].Access(local)
}

// AccessInto is Access writing into a caller-provided buffer; the routing
// adds one O(log K) Fenwick walk to the shard probe and no allocation.
func (s *Set) AccessInto(j int64, buf relation.Tuple) error {
	sh, local, err := s.Locate(j)
	if err != nil {
		return err
	}
	return s.shards[sh].AccessInto(local, buf)
}

// AccessBatch is AccessBatchContext with a background context.
func (s *Set) AccessBatch(js []int64, workers int) ([]relation.Tuple, error) {
	return s.AccessBatchContext(context.Background(), js, workers)
}

// AccessBatchContext returns Access(j) for every j in js, in order: the
// position vector is validated up front (one out-of-range position fails
// the whole batch, like the unsharded index), split per shard, fanned out
// across the worker budget, and the shard results scattered back into
// request order.
func (s *Set) AccessBatchContext(ctx context.Context, js []int64, workers int) ([]relation.Tuple, error) {
	for _, j := range js {
		if j < 0 || j >= s.count {
			return nil, access.ErrOutOfBounds
		}
	}
	out := make([]relation.Tuple, len(js))
	if len(js) == 0 {
		return out, nil
	}
	if len(js) < access.BatchSerialThreshold || len(s.shards) == 1 {
		if len(s.shards) == 1 {
			return s.shards[0].AccessBatchContext(ctx, js, workers)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, j := range js {
			t, err := s.Access(j)
			if err != nil {
				return nil, err
			}
			out[i] = t
		}
		return out, nil
	}
	// Split the position vector per shard, remembering each position's
	// request slot so shard results land back in request order.
	perJS := make([][]int64, len(s.shards))
	perAt := make([][]int, len(s.shards))
	for i, j := range js {
		sh := s.tree.FindPrefix(j)
		perJS[sh] = append(perJS[sh], j-s.starts[sh])
		perAt[sh] = append(perAt[sh], i)
	}
	if workers <= 0 {
		workers = parallel.Workers()
	}
	active := 0
	for _, p := range perJS {
		if len(p) > 0 {
			active++
		}
	}
	inner := workers / active
	if inner < 1 {
		inner = 1
	}
	err := parallel.ForEach(len(s.shards), workers, func(sh int) error {
		if len(perJS[sh]) == 0 {
			return nil
		}
		ts, err := s.shards[sh].AccessBatchContext(ctx, perJS[sh], inner)
		if err != nil {
			return err
		}
		at := perAt[sh]
		for i, t := range ts {
			out[at[i]] = t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InvertedAccess returns the GLOBAL position of an answer, or ok=false.
// Shards partition the answer space, so at most one can claim the tuple;
// a miss at a shard's root is one failed hash probe, keeping the scan O(K)
// lookups, not O(K) index walks.
func (s *Set) InvertedAccess(t relation.Tuple) (int64, bool) {
	for i, idx := range s.shards {
		if j, ok := idx.InvertedAccess(t); ok {
			return s.starts[i] + j, true
		}
	}
	return 0, false
}

// Contains reports whether t is an answer.
func (s *Set) Contains(t relation.Tuple) bool {
	_, ok := s.InvertedAccess(t)
	return ok
}
