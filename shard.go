package renum

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/plan"
	"repro/internal/reduce"
	"repro/internal/shard"
)

// KindSharded: K partition indexes composed behind one global position
// space (WithShards). Single-slice handles (WithShardSlice / SliceView)
// report the kind they slice instead — a shard daemon is transparent, and
// the scale-out router echoes the logical kind clients would see unsharded.
const KindSharded Kind = "sharded"

// WithShards partitions the query's answers into k contiguous shards at
// load time and builds one index per shard in parallel, composed behind the
// ordinary Handle surface: Count, Access, AccessBatch, All and Shuffled are
// byte-identical to the unsharded index, with global positions routed to
// their shard through a prefix-sum table in O(log K). Requires a CQ;
// unions and WithDynamic fail with ErrUnsupported. The sharded handle has
// no CapSnapshot (persist the unsharded form and shard at load time).
func WithShards(k int) Option { return func(c *config) { c.shards = k } }

// WithShardSlice builds ONLY shard i of the k-way partition, serving its
// window of the global enumeration order as local positions 0..Count()-1.
// It is the shard daemon's option: each daemon builds 1/k of the index,
// and a router re-bases local positions onto the global order from the
// daemons' counts. Mutually exclusive with WithShards; same restrictions.
func WithShardSlice(i, k int) Option {
	return func(c *config) { c.sliceIdx, c.sliceOf = i, k }
}

// openSharded is the Open path for WithShards/WithShardSlice on a CQ. q is
// the planner's output (Open plans before shard dispatch, on the full
// database — so every slice of a fleet compiles the same chosen tree); pl is
// the plan record for Explain, nil when planning was off or not applicable.
func openSharded(db *Database, q *CQ, cfg config, pl *plan.Plan) (*Handle, error) {
	if cfg.dynamic {
		return nil, fmt.Errorf("renum: WithShards with WithDynamic: %w (positions shift under updates; shard the static form)", ErrUnsupported)
	}
	if cfg.shards > 0 && cfg.sliceOf > 0 {
		return nil, fmt.Errorf("renum: WithShards and WithShardSlice are mutually exclusive")
	}
	reduceOpts := reduce.Options{CanonicalOrder: cfg.canonical}
	buildOpts := access.BuildOptions{Workers: cfg.workers}
	t0 := time.Now()
	var (
		set *shard.Set
		err error
	)
	if cfg.sliceOf > 0 {
		set, err = shard.BuildSlice(db, q, cfg.sliceIdx, cfg.sliceOf, reduceOpts, buildOpts)
	} else {
		set, err = shard.Build(db, q, cfg.shards, reduceOpts, buildOpts)
	}
	if err != nil {
		return nil, err
	}
	if cfg.buildObserve != nil {
		cfg.buildObserve("shard_build", time.Since(t0))
	}
	return &Handle{b: shBackend{set: set, sliceIdx: cfg.sliceIdx, sliceOf: cfg.sliceOf, plan: pl}, workers: cfg.workers}, nil
}

// shBackend serves a Handle from a shard.Set. It carries the full optional
// surface of the static CQ backend except snapshotting: enumeration order
// is stable (global j-order) and inverted access re-bases shard positions.
// Permute, Shuffled and the sampler shuffle the global positions, so a
// WithShards handle emits the unsharded index's answers for the same seed.
type shBackend struct {
	set      *shard.Set
	sliceIdx int
	sliceOf  int        // > 0 when this is a single-slice build
	plan     *plan.Plan // cost-based planning record, nil when off
}

func (b shBackend) kind() Kind {
	if b.sliceOf > 0 {
		return KindCQ // a single slice serves its CQ transparently
	}
	return KindSharded
}

func (b shBackend) Count() int64   { return b.set.Count() }
func (b shBackend) Head() []string { return b.set.Head() }

func (b shBackend) AccessInto(j int64, buf Tuple) error { return b.set.AccessInto(j, buf) }

func (b shBackend) accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error) {
	return b.set.AccessBatchContext(ctx, js, workers)
}

func (b shBackend) InvertedAccess(t Tuple) (int64, bool) { return b.set.InvertedAccess(t) }

func (b shBackend) Contains(t Tuple) bool { return b.set.Contains(t) }

func (b shBackend) explain() (string, bool) {
	var sb strings.Builder
	if b.plan != nil {
		sb.WriteString(b.plan.Explain())
	}
	if b.sliceOf > 0 {
		lo, hi := b.set.Bounds(0)
		fmt.Fprintf(&sb, "shard slice %d/%d: root rows [%d, %d), %d answers\n",
			b.sliceIdx, b.sliceOf, lo, hi, b.set.Count())
	} else {
		fmt.Fprintf(&sb, "sharded K=%d: per-shard answer counts [", b.set.NumShards())
		for i := 0; i < b.set.NumShards(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", b.set.ShardCount(i))
		}
		sb.WriteString("], global Access routed by prefix sums\n")
	}
	sb.WriteString(b.set.FullJoin().Explain())
	return sb.String(), true
}

// ---------------------------------------------------------------- SliceView

// SliceView returns a handle serving the i-th of k contiguous position
// windows of h's enumeration order as local positions 0..Count()-1 —
// WithShardSlice for handles that cannot be rebuilt from base relations
// (snapshot-restored catalogs: the mmap-backed index only faults the pages
// the window touches). The window boundaries are floor(i·N/k): the k
// slices partition h exactly, so concatenating them in slice order
// reproduces h byte-for-byte. Requires CapEnumerate (a stable order is
// what makes a position window meaningful).
func SliceView(h *Handle, i, k int) (*Handle, error) {
	if h == nil {
		return nil, fmt.Errorf("renum: SliceView: nil handle")
	}
	if k < 1 || i < 0 || i >= k {
		return nil, fmt.Errorf("renum: SliceView: slice %d/%d out of range", i, k)
	}
	if !h.Has(CapEnumerate) {
		return nil, fmt.Errorf("renum: SliceView requires a stable enumeration order: %w (kind %s)", ErrUnsupported, h.Kind())
	}
	n := h.Count()
	lo, hi := int64(i)*n/int64(k), int64(i+1)*n/int64(k)
	sb := sliceBackend{of: h.b, lo: lo, n: hi - lo, idx: i, k: k}
	if _, ok := h.b.(Inverter); ok {
		return &Handle{b: sliceInvBackend{sb}, workers: h.workers}, nil
	}
	return &Handle{b: sb, workers: h.workers}, nil
}

// sliceBackend is a contiguous position window over another backend.
type sliceBackend struct {
	of     backend
	lo, n  int64
	idx, k int
}

func (b sliceBackend) kind() Kind { return b.of.kind() }

func (b sliceBackend) Count() int64   { return b.n }
func (b sliceBackend) Head() []string { return b.of.Head() }

func (b sliceBackend) AccessInto(j int64, buf Tuple) error {
	if j < 0 || j >= b.n {
		return ErrOutOfBounds
	}
	return b.of.AccessInto(b.lo+j, buf)
}

func (b sliceBackend) accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error) {
	shifted, err := b.shift(js)
	if err != nil {
		return nil, err
	}
	return b.of.accessBatchContext(ctx, shifted, workers)
}

func (b sliceBackend) accessBatchInto(js []int64, rows []Tuple) error {
	shifted, err := b.shift(js)
	if err != nil {
		return err
	}
	return accessBatchInto(b.of, shifted, rows)
}

// shift maps window positions onto the wrapped backend's, or fails with
// ErrOutOfBounds when one lies outside the window.
func (b sliceBackend) shift(js []int64) ([]int64, error) {
	shifted := make([]int64, len(js))
	for i, j := range js {
		if j < 0 || j >= b.n {
			return nil, ErrOutOfBounds
		}
		shifted[i] = b.lo + j
	}
	return shifted, nil
}

// explain always has the window to report, with the wrapped backend's plan
// after it when there is one.
func (b sliceBackend) explain() (string, bool) {
	inner, _ := explain(b.of)
	return fmt.Sprintf("slice %d/%d: positions [%d, %d) of the global order\n", b.idx, b.k, b.lo, b.lo+b.n) + inner, true
}

// sliceInvBackend adds inverted access and membership when the wrapped
// backend can invert: a hit outside the window is not an answer of the
// slice. (Contains needs the inverse too — a bare Container could confirm
// membership in the whole answer set, not in this window.)
type sliceInvBackend struct {
	sliceBackend
}

func (b sliceInvBackend) InvertedAccess(t Tuple) (int64, bool) {
	g, ok := b.of.(Inverter).InvertedAccess(t)
	if !ok || g < b.lo || g >= b.lo+b.n {
		return 0, false
	}
	return g - b.lo, true
}

func (b sliceInvBackend) Contains(t Tuple) bool {
	_, ok := b.InvertedAccess(t)
	return ok
}
