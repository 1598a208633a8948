// Package access implements the paper's core data structure: the weighted
// join-tree index over a full acyclic join, built in linear time
// (Algorithm 2), supporting
//
//   - Count in O(1),
//   - random access Access(j) in O(log |D|) (Algorithm 3), and
//   - inverted access InvertedAccess(answer) in O(1) lookups (Algorithm 4),
//
// which together realize Theorem 4.3. The enumeration order defined by the
// index (answer j precedes answer j+1) is determined entirely by tuple
// insertion order in the underlying relations and by the deterministic join
// tree, which is what makes orders of structurally-aligned queries
// *compatible* in the sense of Section 5.2.
//
// # Representation
//
// Buckets are addressed by dense integer group IDs, not string keys: each
// node groups its relation once on the parent-shared attributes
// (relation.GroupBy) and then stably gathers the relation's rows into
// bucket order (Grouping.SortRows), so bucket g is the contiguous run of
// rows bucketOff[g] … bucketOff[g+1]−1, in the relation's order within the
// bucket. A slot is a row: the node's columns, its start indexes and its
// child-bucket IDs are all read at the slot the bucket search found, with
// no slot-to-row table in between, and a row's ordinal in its bucket is its
// position minus its bucket's offset. Every parent tuple's child-bucket IDs
// are resolved once at build time into flat int32 arrays. A probe therefore
// never hashes a key and never allocates: Access walks the tree with array
// indexing and an in-bucket binary search, and inverted access replaces the
// per-node tuple reconstruction with a single position lookup in the node
// relation's membership index. The groupings' key lookup structures are
// needed only to resolve child buckets during the build, and are released
// once every node is built.
//
// The index keeps one aggregate per slot and one per bucket, and only at
// inner nodes. A weight is the difference of two consecutive start indexes,
// so the bucket search reads the start array alone: the last slot whose
// start is ≤ j. A leaf keeps no aggregate at all — every leaf weight is 1,
// so answer j of a leaf bucket is its j-th slot and the bucket's total is
// its length. The rejection bounds of the EO and OE baseline samplers (the
// root's largest weight, each node's largest bucket) are not stored either;
// BaselineBounds derives them in one pass when internal/sample builds a
// sampler.
//
// # Batched probes
//
// A single probe is a chain of dependent loads — bucket bounds, binary
// search, the slot's columns, each child's bucket — so on an index larger than
// the cache it runs at memory latency. The batched forms (AccessBatch,
// AccessBatchContext, AccessBatchInto) therefore do not loop over Access:
// they send groups of probes down the tree in lockstep, prefetching a pass
// ahead, so that the cache misses of a group overlap (group.go). The single
// probe stays what Access and AccessInto run, and what a batch falls back
// to for a node too wide for the grouped split and for a run of consecutive
// positions, whose probes share their path anyway.
//
// # Concurrency contract
//
// An Index is immutable once New (or NewWithOptions) returns: every probe —
// Access, AccessInto, the AccessBatch forms, InvertedAccess, Contains, Count,
// the baseline samplers — only reads the structure, and is safe to call from
// any number of goroutines concurrently with no external locking. The one
// exception is a restored index (UnmarshalIndex): its first InvertedAccess
// builds the node relations' membership indexes, once, under a sync.Once
// that concurrent first calls wait on. The column arrays of the underlying
// relations are likewise immutable after build. Construction itself may run
// the per-node bucket builds of independent join-tree subtrees on a worker
// pool (see BuildOptions); the structure is byte-for-byte the same at every
// worker count, because each node's buckets are a deterministic function of
// its own relation and its children's finished groupings.
package access

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
	"unsafe"

	"repro/internal/parallel"
	"repro/internal/reduce"
	"repro/internal/relation"
)

// ErrOutOfBounds is returned by Access for j outside [0, Count()).
var ErrOutOfBounds = errors.New("access: index out of bounds")

// ErrCountOverflow is returned by New and NewWithOptions when the number of
// answers — or of partial answers below some join-tree bucket — does not fit
// an int64. Positions are int64 throughout, so such a join cannot be indexed;
// the build refuses instead of handing out a wrapped count.
var ErrCountOverflow = errors.New("access: answer count overflows int64")

// Index is the preprocessed structure of Theorem 4.3.
type Index struct {
	head  []string
	root  *node
	nodes []*node
	count int64

	// members builds every node relation's membership index, which inverted
	// access probes. NewWithOptions runs it before the bucket gather; a
	// restored index (UnmarshalIndex) leaves it to the first InvertedAccess,
	// so a cold start that never inverts never hashes a tuple.
	members sync.Once
}

// node mirrors one relation of the full-join tree. All per-bucket state is
// flattened, and a slot is a row of rel: bucket g of this node owns rows
// bucketOff[g] … bucketOff[g+1]−1 of rel and of every per-slot array, with
// tuples in their reduced relation's order within a bucket — exactly the
// order the map-of-slices representation used, so enumeration order is
// unchanged.
type node struct {
	// rel is the node's relation in bucket order (the build's stable
	// gather of the full join's relation).
	rel      *relation.Relation
	children []*node
	ord      int // position in Index.nodes

	// pAttPos: positions (in this node's schema) of the attributes shared
	// with the parent, in this node's schema order. Empty at the root.
	pAttPos []int
	// childKeyPos[i]: positions in THIS node's schema of the attributes
	// shared with child i, in the same attribute order as the child's
	// pAttPos — so the parent can compute the child's bucket key directly
	// from its own tuple.
	childKeyPos [][]int

	// grouping assigns each tuple its bucket: dense group IDs on pAttPos.
	// Its GroupOf is in slot order, so it is non-decreasing, and it is what
	// inverted access reads to find a located row's bucket (Algorithm 4
	// line 4: the row's ordinal in the bucket is pos − bucketOff[g]).
	grouping *relation.Grouping

	// Flattened bucket storage (Algorithm 2's startIndex(t) and w(B)). A
	// slot's weight w(t) is not stored: it is its successor's start minus its
	// own, or total minus its own for a bucket's last slot. A leaf stores
	// neither array: every leaf weight is 1 (a product over no children), so
	// startIndex(t) is t's ordinal in its bucket and w(B) the bucket length.
	bucketOff []int32 // len NumGroups+1; bucket g = slots [off[g], off[g+1])
	start     []int64 // startIndex(t) per slot; nil at a leaf
	total     []int64 // w(B) per bucket; nil at a leaf

	// childGroup[ci][slot]: bucket ID in child ci matching the tuple at slot
	// of this node, or -1 when the child has no matching bucket. Resolved
	// once at build time so no probe ever hashes a join key.
	childGroup [][]int32

	// Output assembly: this node provides output column outCols[i] from
	// schema position outPos[i]; outVals[i] is the backing column of rel,
	// indexed by slot.
	outCols []int
	outPos  []int
	outVals [][]relation.Value

	// schemaHeadPos[i]: output column holding the value of schema attribute
	// i (every attribute of a full-join node is a head variable).
	schemaHeadPos []int
}

// bucketLen returns the number of tuples in bucket g.
func (n *node) bucketLen(g uint32) int {
	return int(n.bucketOff[g+1] - n.bucketOff[g])
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// bucketTotal returns w(B) of bucket g: the number of partial answers below
// it.
func (n *node) bucketTotal(g uint32) int64 {
	if n.leaf() {
		return int64(n.bucketLen(g))
	}
	return n.total[g]
}

// slotSpan returns the index range [lo, hi) of slot within bucket g; its
// weight is hi − lo.
func (n *node) slotSpan(g uint32, slot int32) (lo, hi int64) {
	if n.leaf() {
		lo = int64(slot - n.bucketOff[g])
		return lo, lo + 1
	}
	hi = n.total[g]
	if slot+1 < n.bucketOff[g+1] {
		hi = n.start[slot+1]
	}
	return n.start[slot], hi
}

// BuildOptions tunes index construction.
type BuildOptions struct {
	// Workers is the maximum number of goroutines building join-tree nodes
	// concurrently. 0 means parallel.Workers() (GOMAXPROCS); 1 builds on
	// the calling goroutine.
	Workers int
	// SerialThreshold is the minimum total tuple count (over all nodes)
	// before the parallel build kicks in; smaller inputs always build
	// serially, where goroutine overhead would dominate. 0 means
	// DefaultSerialThreshold.
	SerialThreshold int
	// Observe, when set, receives build-stage timings, once each and in
	// this order: "member_index" (the node relations' membership indexes)
	// and "index_build" (the full weight computation); callers layer their
	// own stages on top.
	Observe func(stage string, d time.Duration)
}

// DefaultSerialThreshold is the tuple count below which parallel
// construction is not attempted.
const DefaultSerialThreshold = 1 << 15

// New builds the index from a reduced full join (Algorithm 2). Linear time in
// the total number of tuples. Large inputs are built with the default
// parallel options; see NewWithOptions.
func New(fj *reduce.FullJoin) (*Index, error) {
	return NewWithOptions(fj, BuildOptions{})
}

// NewWithOptions is New with explicit control over build parallelism.
// Algorithm 2 runs in one schedule: nodes are grouped by height, leaves
// first, and each wave runs on up to opts.Workers goroutines, so a node
// starts only after all its children finished. At one worker, below
// opts.SerialThreshold tuples, or for a wave of one node, the wave runs on
// the calling goroutine. The index does not depend on the worker count.
//
// Every node keeps its relation in bucket order: a stable gather of fj's
// relation into a new one (the same tuples, so Q(D) and the enumeration
// order are unchanged), which then replaces the original in fj's node, so
// that the two do not both stay alive. The original is not written; a
// relation already in bucket order is kept as it is, and when no semijoin
// shrank an unfiltered atom's relation, that may be the database's own
// arrays (relation.Relation.Lend): the index then reads the base columns
// and the base's membership index.
//
// Every node relation leaves with its membership index, built before the
// gather, one task per node on the same worker pool and serial threshold,
// so that the gather remaps it instead of rehashing the gathered rows; a
// node that no semijoin shrank shares its base's index and builds nothing.
func NewWithOptions(fj *reduce.FullJoin, opts BuildOptions) (*Index, error) {
	idx := &Index{head: fj.Head}

	// Build the mirrored node tree (fj.Nodes order for determinism).
	nodeOf := make(map[*reduce.Node]*node, len(fj.Nodes))
	for _, fn := range fj.Nodes {
		nodeOf[fn] = &node{rel: fn.Rel}
	}
	for _, fn := range fj.Nodes {
		n := nodeOf[fn]
		if fn.Parent == nil {
			idx.root = n
		} else if err := nodeOf[fn.Parent].linkChild(n); err != nil {
			return nil, err
		}
		n.ord = len(idx.nodes)
		idx.nodes = append(idx.nodes, n)
	}
	if idx.root == nil {
		return nil, fmt.Errorf("access: full join has no root")
	}
	if err := idx.wireOutputs(); err != nil {
		return nil, err
	}

	workers := idx.buildWorkers(opts.Workers, opts.SerialThreshold)
	// The membership indexes first, so that the gather remaps them.
	stageStart := time.Now()
	idx.members.Do(func() { idx.indexMembers(workers) })
	if opts.Observe != nil {
		opts.Observe("member_index", time.Since(stageStart))
		stageStart = time.Now()
	}

	// Algorithm 2: leaf-to-root weight computation. Each node's buckets
	// depend only on its children's finished groupings, so nodes of equal
	// height are independent and build concurrently, one wave at a time.
	for _, wave := range buildWaves(idx.root) {
		if err := parallel.ForEach(len(wave), workers, func(i int) error {
			return wave[i].build()
		}); err != nil {
			return nil, err
		}
	}

	// Every child bucket is resolved: the key lookups are build-time memory.
	for i, n := range idx.nodes {
		n.grouping.ReleaseKeys()
		fj.Nodes[i].Rel = n.rel
	}
	if opts.Observe != nil {
		opts.Observe("index_build", time.Since(stageStart))
	}

	if idx.root.grouping.NumGroups() > 0 {
		idx.count = idx.root.bucketTotal(0)
	}
	return idx, nil
}

// buildWorkers returns the worker count of a build stage: workers (0:
// parallel.Workers()), or 1 when the index holds fewer than threshold tuples
// (0: DefaultSerialThreshold), where goroutine overhead would dominate.
func (idx *Index) buildWorkers(workers, threshold int) int {
	if threshold == 0 {
		threshold = DefaultSerialThreshold
	}
	if idx.Tuples() < int64(threshold) {
		return 1
	}
	return workers
}

// indexMembers builds every node relation's absent membership index, one
// task per node on up to workers goroutines (0: parallel.Workers()). Run
// only through idx.members.
func (idx *Index) indexMembers(workers int) {
	_ = parallel.ForEach(len(idx.nodes), workers, func(i int) error {
		idx.nodes[i].rel.BuildIndex()
		return nil
	})
}

// MembersIndexed reports whether every node relation's membership index is
// present. Diagnostic: it must not race with the first InvertedAccess of a
// restored index.
func (idx *Index) MembersIndexed() bool {
	for _, n := range idx.nodes {
		if !n.rel.Indexed() {
			return false
		}
	}
	return true
}

// linkChild wires one parent→child edge: the shared attributes (in child
// schema order) become the child's bucket key, and the parent records where
// to read that key in its own tuples. Shared by the builder and the
// snapshot-restore path, so the wiring cannot drift between them.
func (n *node) linkChild(c *node) error {
	shared := c.rel.Schema().Intersect(n.rel.Schema())
	var err error
	c.pAttPos, err = c.rel.Schema().Positions(shared)
	if err != nil {
		return err
	}
	keyPos, err := n.rel.Schema().Positions(shared)
	if err != nil {
		return err
	}
	n.children = append(n.children, c)
	n.childKeyPos = append(n.childKeyPos, keyPos)
	return nil
}

// wireOutputs computes every node's schemaHeadPos and assigns each output
// column to the first node (in idx.nodes order) whose schema contains it.
// Shared by the builder and the snapshot-restore path.
func (idx *Index) wireOutputs() error {
	headPos := make(map[string]int, len(idx.head))
	for i, h := range idx.head {
		headPos[h] = i
	}
	for _, n := range idx.nodes {
		schema := n.rel.Schema()
		n.schemaHeadPos = make([]int, len(schema))
		for i, attr := range schema {
			hp, ok := headPos[attr]
			if !ok {
				return fmt.Errorf("access: node attribute %q is not a head variable", attr)
			}
			n.schemaHeadPos[i] = hp
		}
	}
	assigned := make([]bool, len(idx.head))
	for _, n := range idx.nodes {
		n.outCols, n.outPos = nil, nil
		for i, hp := range n.schemaHeadPos {
			if !assigned[hp] {
				assigned[hp] = true
				n.outCols = append(n.outCols, hp)
				n.outPos = append(n.outPos, i)
			}
		}
	}
	for i, ok := range assigned {
		if !ok {
			return fmt.Errorf("access: head variable %q not covered by any node", idx.head[i])
		}
	}
	return nil
}

// build computes this node's grouping, gathers its relation into bucket
// order, and, above the leaves, computes the weights' prefix sums (the
// Algorithm 2 loop body). Every child must be built already. It writes only
// this node's fields and reads only the children's groupings and totals,
// which is what makes same-height nodes safe to build concurrently.
// It fails with ErrCountOverflow when a weight or a bucket total leaves
// int64; the probe paths then never see a wrapped value and need no checks.
func (n *node) build() error {
	n.grouping = n.rel.GroupBy(n.pAttPos)
	// Resolve every tuple's child buckets once (the only key lookups left),
	// before the gather: in the reduced relation's order, which follows its
	// base table's, the lookups tend to walk a child's table and key rows in
	// order, and in bucket order they jump (on paper_tpch's queries
	// LookupRows took twice as long after the gather as before it).
	n.childGroup = make([][]int32, len(n.children))
	for ci, c := range n.children {
		n.childGroup[ci] = c.grouping.LookupRows(n.rel, n.childKeyPos[ci])
	}
	n.gather()
	n.wireOutVals()
	if n.leaf() {
		return nil
	}
	ng := n.grouping.NumGroups()
	n.start = make([]int64, n.rel.Len())
	n.total = make([]int64, ng)
	for g := 0; g < ng; g++ {
		var total int64
		for slot := n.bucketOff[g]; slot < n.bucketOff[g+1]; slot++ {
			// w(t) = product of the matching child buckets' totals, zero as
			// soon as one child has no match (or only dangling tuples): a zero
			// factor wins over an overflow of the factors before it.
			uw, over := uint64(1), false
			for ci, c := range n.children {
				cg := n.childGroup[ci][slot]
				if cg < 0 {
					uw, over = 0, false
					break
				}
				ct := c.bucketTotal(uint32(cg))
				if ct == 0 {
					uw, over = 0, false
					break
				}
				hi, lo := bits.Mul64(uw, uint64(ct))
				over = over || hi != 0 || lo > math.MaxInt64
				uw = lo
			}
			w := int64(uw)
			if over || w > math.MaxInt64-total {
				return fmt.Errorf("%w (node %s)", ErrCountOverflow, n.rel.Name())
			}
			n.start[slot] = total
			total += w
		}
		n.total[g] = total
	}
	return nil
}

// gather replaces n's relation by its stable gather into bucket order
// (Grouping.SortRows) and moves the child-bucket arrays with its rows, into
// fresh arrays: a restored node's may view a read-only mapping. It returns
// the new position of every old row, or nil when the relation was in
// bucket order already and nothing moved.
func (n *node) gather() (slotOf []int32) {
	n.rel, n.bucketOff, slotOf = n.grouping.SortRows(n.rel)
	if slotOf != nil {
		for ci, cg := range n.childGroup {
			moved := make([]int32, len(cg))
			for pos, g := range cg {
				moved[slotOf[pos]] = g
			}
			n.childGroup[ci] = moved
		}
	}
	return slotOf
}

// wireOutVals points the output columns at rel's columns.
func (n *node) wireOutVals() {
	n.outVals = make([][]relation.Value, len(n.outPos))
	for k, p := range n.outPos {
		n.outVals[k] = n.rel.Col(p)
	}
}

// prefetchSlot prefetches the cells a probe reads at slot i of n: its
// output columns and its child-bucket ids.
func (n *node) prefetchSlot(i int) {
	for _, col := range n.outVals {
		relation.Prefetch(unsafe.Pointer(&col[i]))
	}
	for _, cg := range n.childGroup {
		relation.Prefetch(unsafe.Pointer(&cg[i]))
	}
}

// buildWaves groups the tree's nodes by height (leaves first): wave k holds
// the nodes whose longest path to a leaf is k. All nodes within a wave are
// mutually independent, and every dependency of wave k lives in waves < k.
func buildWaves(root *node) [][]*node {
	var waves [][]*node
	var height func(n *node) int
	height = func(n *node) int {
		h := 0
		for _, c := range n.children {
			if ch := height(c) + 1; ch > h {
				h = ch
			}
		}
		for len(waves) <= h {
			waves = append(waves, nil)
		}
		waves[h] = append(waves[h], n)
		return h
	}
	height(root)
	return waves
}

// Head returns the output variable order.
func (idx *Index) Head() []string { return idx.head }

// Count returns |Q(D)| in constant time.
func (idx *Index) Count() int64 { return idx.count }

// Tuples returns the number of tuples the index stores: the sum of its node
// relations' lengths. Count can be far larger (a join multiplies) or smaller;
// Tuples is what the index costs, and so the budget for anything derived
// from it that must stay linear in the preprocessing.
func (idx *Index) Tuples() int64 {
	var n int64
	for _, nd := range idx.nodes {
		n += int64(nd.rel.Len())
	}
	return n
}

// Access returns the j-th answer (0-based) in the index's enumeration order
// (Algorithm 3). It returns ErrOutOfBounds if j is not in [0, Count()).
// The only allocation is the returned tuple; AccessInto avoids even that.
func (idx *Index) Access(j int64) (relation.Tuple, error) {
	if j < 0 || j >= idx.count {
		return nil, ErrOutOfBounds
	}
	answer := make(relation.Tuple, len(idx.head))
	idx.subtreeAccess(idx.root, 0, j, answer)
	return answer, nil
}

// AccessInto is Access writing into a caller-provided buffer (len == arity).
// It performs no allocations (asserted by testing.AllocsPerRun).
func (idx *Index) AccessInto(j int64, answer relation.Tuple) error {
	if j < 0 || j >= idx.count {
		return ErrOutOfBounds
	}
	idx.subtreeAccess(idx.root, 0, j, answer)
	return nil
}

// BatchSerialThreshold: below this many probes, the goroutine fan-out of a
// batch costs more than it saves. Every batched probe in the module — this
// index's, the union's, the shard set's — stays on the calling goroutine
// below it.
const BatchSerialThreshold = 256

// AccessBatch returns Access(j) for every j in js, in order, fanning the
// probes out over up to `workers` goroutines (workers <= 0 means
// parallel.Workers(); small batches run serially either way). The whole
// batch is validated first: any out-of-range position fails the call with
// ErrOutOfBounds before any tuple is assembled. Duplicate positions are
// allowed and yield equal answers. Answers of one chunk share a single
// contiguous backing array, so a batch of k probes costs O(1) allocations
// per chunk instead of k. A batch is not a loop of single probes: within a
// chunk, groups of probes descend the join tree in lockstep so that their
// cache misses overlap (see groupSize).
func (idx *Index) AccessBatch(js []int64, workers int) ([]relation.Tuple, error) {
	return idx.AccessBatchContext(context.Background(), js, workers)
}

// AccessBatchContext is AccessBatch honoring cancellation between chunks:
// when ctx is cancelled mid-batch the remaining chunks are dropped, ctx.Err()
// is returned and no partial result escapes — chunks already running finish
// into their own backing arrays, so the answers of a concurrent or later
// batch are never corrupted. A background (never-cancellable) context takes
// the exact AccessBatch fast path.
func (idx *Index) AccessBatchContext(ctx context.Context, js []int64, workers int) ([]relation.Tuple, error) {
	if !idx.inBounds(js) {
		return nil, ErrOutOfBounds
	}
	out := make([]relation.Tuple, len(js))
	if len(js) == 0 {
		return out, nil
	}
	arity := len(idx.head)
	fill := func(lo, hi int) error {
		backing := make([]relation.Value, (hi-lo)*arity)
		for i := lo; i < hi; i++ {
			out[i] = backing[(i-lo)*arity : (i-lo+1)*arity : (i-lo+1)*arity]
		}
		idx.accessGroups(js[lo:hi], out[lo:hi])
		return nil
	}
	serial := workers == 1 || len(js) < BatchSerialThreshold
	cancellable := ctx != nil && ctx.Done() != nil
	if !cancellable && serial {
		_ = fill(0, len(js))
		return out, nil
	}
	if serial {
		workers = 1
	}
	if err := parallel.ForEachChunkCtx(ctx, len(js), workers, fill); err != nil {
		return nil, err
	}
	return out, nil
}

// AccessBatchInto is AccessBatch on the calling goroutine into rows the
// caller owns: rows[i] receives the answer at js[i] and must have the
// index's arity. It allocates nothing, which is what a server filling
// pooled scratch rows or an iterator filling one array per chunk wants.
// Like AccessBatch it validates first — an out-of-range position, or rows
// of another length than js, fails the call before any row is written.
func (idx *Index) AccessBatchInto(js []int64, rows []relation.Tuple) error {
	if len(rows) != len(js) {
		return fmt.Errorf("access: AccessBatchInto: %d rows for %d positions", len(rows), len(js))
	}
	if !idx.inBounds(js) {
		return ErrOutOfBounds
	}
	idx.accessGroups(js, rows)
	return nil
}

func (idx *Index) inBounds(js []int64) bool {
	for _, j := range js {
		if j < 0 || j >= idx.count {
			return false
		}
	}
	return true
}

// accessGroups resolves the validated positions js into rows, groupSize
// probes at a time. A group of consecutive positions — a page, a stretch of
// a sequential drain, a single position — is left to the single probe:
// neighbours in the order walk the same tuples, so each probe after the
// first finds its lines in cache and lockstep would only add work.
func (idx *Index) accessGroups(js []int64, rows []relation.Tuple) {
	var gs [groupSize]uint32 // every probe starts in the root's one bucket
	var sub [groupSize]int64 // the descent rewrites its positions
	for len(js) > 0 {
		k := copy(sub[:], js)
		if consecutive(sub[:k]) {
			for p, j := range sub[:k] {
				idx.subtreeAccess(idx.root, 0, j, rows[p])
			}
		} else {
			idx.subtreeAccessGroup(idx.root, gs[:], sub[:], k, rows)
		}
		js, rows = js[k:], rows[k:]
	}
}

func consecutive(js []int64) bool {
	for i := 1; i < len(js); i++ {
		if js[i] != js[i-1]+1 {
			return false
		}
	}
	return true
}

// subtreeAccess resolves index j within bucket g of node n, writing the
// node's output columns and recursing into the children. Pure array
// arithmetic: no hashing, no allocation.
func (idx *Index) subtreeAccess(n *node, g uint32, j int64, answer relation.Tuple) {
	// Every leaf weight is 1: answer j of a leaf bucket is its j-th slot.
	i := int(n.bucketOff[g]) + int(j)
	if !n.leaf() {
		i = n.searchBucket(g, j)
	}
	for k, col := range n.outCols {
		answer[col] = n.outVals[k][i]
	}
	if n.leaf() {
		return
	}
	// SplitIndex (Algorithm 3 lines 12-13): mixed-radix decomposition, last
	// child least significant. Child buckets were resolved at build time.
	rem := j - n.start[i]
	if len(n.children) <= maxSplitChildren {
		// Two-pass split: resolve every child's bucket and sub-index first,
		// prefetching the lines each child reads first — a leaf's cells, an
		// inner node's first binary-search midpoint — as its split is
		// computed. The recursive descent would serialize those cache misses
		// — child ci's lines are not touched until children ci+1..m
		// finished — whereas here all of them are in flight before the first
		// recursion starts.
		var cgs [maxSplitChildren]uint32
		var jis [maxSplitChildren]int64
		for ci := len(n.children) - 1; ci >= 0; ci-- {
			c := n.children[ci]
			cg := uint32(n.childGroup[ci][i])
			ct := c.bucketTotal(cg)
			ji := rem % ct
			rem /= ct
			jis[ci], cgs[ci] = ji, cg
			if c.leaf() {
				c.prefetchSlot(int(c.bucketOff[cg]) + int(ji))
			} else if mid := int(uint32(c.bucketOff[cg]+1+c.bucketOff[cg+1]) >> 1); mid < len(c.start) {
				relation.Prefetch(unsafe.Pointer(&c.start[mid]))
			}
		}
		for ci := len(n.children) - 1; ci >= 0; ci-- {
			idx.subtreeAccess(n.children[ci], cgs[ci], jis[ci], answer)
		}
		return
	}
	for ci := len(n.children) - 1; ci >= 0; ci-- {
		c := n.children[ci]
		cg := uint32(n.childGroup[ci][i])
		ct := c.bucketTotal(cg)
		ji := rem % ct
		rem /= ct
		idx.subtreeAccess(c, cg, ji, answer)
	}
}

// searchBucket returns the slot of inner node n's bucket g whose index range
// holds j: the last slot with startIndex ≤ j. The bucket's first slot starts
// at 0, so only the slots after it are searched. A zero-weight (dangling)
// slot is never the last such slot: its start equals its successor's, or,
// for the bucket's last slot, the bucket total, which exceeds j.
func (n *node) searchBucket(g uint32, j int64) int {
	lo, hi := int(n.bucketOff[g])+1, int(n.bucketOff[g+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.start[mid] > j {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// maxSplitChildren bounds the stack arrays of the two-pass split; a node
// with more children (rare — join-tree fan-out is query-sized) takes the
// one-pass loop.
const maxSplitChildren = 8

// InvertedAccess returns the index j with Access(j) == answer, or ok=false if
// answer is not in Q(D) (Algorithm 4). Constant time in data complexity and
// allocation-free (asserted by testing.AllocsPerRun). On a restored index
// the first call builds the node relations' membership indexes, and
// concurrent first calls wait for that one build.
func (idx *Index) InvertedAccess(answer relation.Tuple) (int64, bool) {
	if len(answer) != len(idx.head) {
		return 0, false
	}
	idx.members.Do(func() { idx.indexMembers(idx.buildWorkers(0, 0)) })
	return idx.invertedSubtree(idx.root, answer)
}

func (idx *Index) invertedSubtree(n *node, answer relation.Tuple) (int64, bool) {
	// Locate this node's tuple directly from the answer (no intermediate
	// tuple: the relation's membership index is probed with the answer's
	// values at this node's attributes). Its row is its slot.
	pos := n.rel.PositionProjected(answer, n.schemaHeadPos)
	if pos < 0 {
		return 0, false
	}
	g := n.grouping.GroupOf[pos]
	if n.leaf() {
		return int64(pos) - int64(n.bucketOff[g]), true
	}
	// CombineIndex (inverse of SplitIndex): left fold, last child least
	// significant.
	var offset int64
	for ci, c := range n.children {
		ji, ok := idx.invertedSubtree(c, answer)
		if !ok {
			return 0, false
		}
		cg := n.childGroup[ci][pos]
		if cg < 0 {
			return 0, false
		}
		offset = offset*c.bucketTotal(uint32(cg)) + ji
	}
	lo, hi := n.slotSpan(g, int32(pos))
	if lo == hi {
		// Dangling tuple (possible when full reduction was skipped): the
		// combination is not a real answer.
		return 0, false
	}
	return lo + offset, true
}

// Contains reports whether answer ∈ Q(D).
func (idx *Index) Contains(answer relation.Tuple) bool {
	_, ok := idx.InvertedAccess(answer)
	return ok
}

// OrderSpec returns the head variables in decreasing significance of the
// index's enumeration order: a pre-order traversal of the join tree,
// concatenating node schemas (first occurrence wins). When the index was
// built over lexicographically sorted relations (reduce.Options
// CanonicalOrder), the enumeration order is exactly the lexicographic order
// of the answers under this variable sequence — a limited form of the
// "direct access in lexicographic orders" studied in follow-up work.
func (idx *Index) OrderSpec() []string {
	var out []string
	seen := make(map[string]bool, len(idx.head))
	var walk func(n *node)
	walk = func(n *node) {
		for _, attr := range n.rel.Schema() {
			if !seen[attr] {
				seen[attr] = true
				out = append(out, attr)
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if idx.root != nil {
		walk(idx.root)
	}
	return out
}
