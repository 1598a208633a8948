package renum

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"time"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/dynaccess"
	"repro/internal/mcucq"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/shuffle"
)

// Query is the sealed interface over the two query forms Open accepts:
// exactly *CQ and *UCQ implement it. Pass the query you built with
// NewCQ/MustCQ or NewUCQ/MustUCQ straight through.
type Query = query.Query

// ErrUnsupported reports that a handle's backend does not implement the
// requested capability — inverted access on a union, updates on a static
// index, enumeration cursors on a dynamic one. It is a sentinel (alongside
// ErrOutOfBounds): test with errors.Is and branch on the capability, instead
// of asking which structure serves the handle.
var ErrUnsupported = errors.New("renum: operation unsupported by this handle")

// IsUnsupported reports whether err indicates a missing capability.
func IsUnsupported(err error) bool { return errors.Is(err, ErrUnsupported) }

// Kind names the backend family serving a Handle. It is diagnostic metadata
// (logs, /v1/{query} responses); dispatch on Capabilities, not Kind.
type Kind string

// The backend families of Open.
const (
	// KindCQ: the Theorem 4.3 single-CQ index.
	KindCQ Kind = "cq"
	// KindUCQ: the Theorem 5.5 mc-UCQ union index.
	KindUCQ Kind = "ucq"
	// KindDynamic: the update-maintaining index (WithDynamic).
	KindDynamic Kind = "dynamic"
)

// Capability identifies one optional facility of a Handle.
type Capability string

// The capability lattice. Every handle supports the shared surface (Count,
// Access, AccessInto, AccessBatch, Page, Head); the rest is discoverable.
const (
	// CapEnumerate: the enumeration order is stable, so All, Shuffled,
	// Permute and server-side cursors are meaningful. Static
	// backends have it; dynamic ones do not (updates shift positions, so
	// "each answer exactly once" cannot be promised across a sequence of
	// probes).
	CapEnumerate Capability = "enumerate"
	// CapInvert: answer → position (Algorithm 4 / Fenwick rank).
	CapInvert Capability = "invert"
	// CapUpdate: Insert/Delete on base relations.
	CapUpdate Capability = "update"
	// CapSample: uniform sampling (distinct or with replacement — ask the
	// Sampler).
	CapSample Capability = "sample"
	// CapContains: membership testing.
	CapContains Capability = "contains"
	// CapExplain: a human-readable compiled plan.
	CapExplain Capability = "explain"
	// CapSnapshot: the handle's index can be persisted into the versioned
	// binary snapshot format (WriteSnapshot / SaveSnapshot) and restored
	// with OpenSnapshot. Static backends have it; the dynamic backend stays
	// heap-only — updates mutate structure the flat format does not
	// represent — and reports the miss here.
	CapSnapshot Capability = "snapshot"
)

// Inverter is the inverted-access capability: answer → position in the
// enumeration order (ok=false if t is not an answer).
type Inverter interface {
	InvertedAccess(t Tuple) (int64, bool)
}

// Updater is the dynamic-maintenance capability: tuple insertions and
// deletions on the base relations, with all derived weights maintained.
type Updater interface {
	Insert(baseRelation string, t Tuple) (changed bool, err error)
	Delete(baseRelation string, t Tuple) (changed bool, err error)
}

// UpdateValidator is an optional refinement of Updater: it checks that an
// update's target (relation name and tuple arity) would be accepted
// without applying anything. Callers that stage irreversible side effects
// around an update — interning values into the append-only dictionary,
// appending to a write-ahead log — probe for it to reject garbage before
// paying those costs. The dynamic backend implements it.
type UpdateValidator interface {
	ValidateUpdate(baseRelation string, arity int) error
}

// Sampler is the uniform-sampling capability. All backends share one error
// shape: k < 0 is ErrOutOfBounds, and an empty answer set yields an empty
// sample with a nil error — emptiness is a result, not a failure.
type Sampler interface {
	// SampleN returns k uniform samples (clamped to Count() when Distinct).
	SampleN(k int64, rng *rand.Rand) ([]Tuple, error)
	// Distinct reports whether SampleN draws without replacement (static
	// backends: lazy Fisher–Yates, distinct; dynamic: independent draws,
	// with replacement).
	Distinct() bool
}

// Container is the membership-testing capability.
type Container interface {
	Contains(t Tuple) bool
}

// backend is the shared probe surface every Handle backend implements; the
// optional capabilities are discovered by interface assertion on the same
// value, so adding a backend never adds a dispatch site.
type backend interface {
	kind() Kind
	Count() int64
	Head() []string
	AccessInto(j int64, buf Tuple) error
	accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error)
}

// probe is Access on any backend: AccessInto into a fresh tuple.
func probe(b backend, j int64) (Tuple, error) {
	t := make(Tuple, len(b.Head()))
	if err := b.AccessInto(j, t); err != nil {
		return nil, err
	}
	return t, nil
}

// explainer marks backends that may hold a compiled plan to render; ok is
// false when this one does not (a snapshot-restored CQ: the reduction is
// not persisted).
type explainer interface {
	explain() (plan string, ok bool)
}

func explain(b backend) (string, bool) {
	if ex, ok := b.(explainer); ok {
		return ex.explain()
	}
	return "", false
}

// config collects the functional options of Open.
type config struct {
	canonical    bool
	dynamic      bool
	workers      int
	planner      PlannerMode
	buildObserve func(stage string, d time.Duration)
}

// Option configures Open: one constructor and options instead of a
// constructor per variant.
type Option func(*config)

// WithCanonical sorts node relations before indexing so the enumeration
// order depends only on database *content*, not insertion order (O(n log n)
// preprocessing instead of linear). Not supported together with WithDynamic.
func WithCanonical() Option { return func(c *config) { c.canonical = true } }

// WithDynamic builds the update-maintaining index (CapUpdate) instead of the
// static one. It requires a single projection-free CQ: unions fail with
// ErrUnsupported, non-full CQs with ErrNotFull.
func WithDynamic() Option { return func(c *config) { c.dynamic = true } }

// WithWorkers caps the goroutines used both for index construction and as
// the default fan-out of the handle's batched probes (AccessBatch, Page).
// n <= 0 means one worker per core.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithBuildObserver registers a callback that receives preprocessing-stage
// timings while Open builds the probe structure. Stages currently emitted:
// for a static CQ, Proposition 4.2's reduction stage by stage — "instantiate"
// (the atoms' relations), "semijoin" (both Yannakakis sweeps) and
// "eliminate" (protected GYO elimination) — then the static access
// structure's "member_index" (its node relations' membership indexes) and
// "index_build" (its weight computation); "dynamic_build" (the
// update-maintaining index); and "union_build" (the mc-UCQ preparation). fn
// must be safe for use from the building goroutine; it is never called
// after Open returns.
func WithBuildObserver(fn func(stage string, d time.Duration)) Option {
	return func(c *config) { c.buildObserve = fn }
}

// PlannerMode selects how Open orders a CQ's body atoms, and with them the
// join tree the CQ is compiled to. A union is always compiled as parsed.
type PlannerMode string

const (
	// PlannerCost (the default) stably sorts a CQ's body atoms by their
	// relations' row counts, so the smallest relation comes first and tends
	// to root the join tree; atoms of equal size keep their as-parsed order.
	// Every order yields the same answers; only the enumeration order and
	// the constants differ.
	PlannerCost PlannerMode = "cost"
	// PlannerOff compiles the as-parsed query byte-for-byte, including the
	// enumeration order.
	PlannerOff PlannerMode = "off"
)

// ParsePlannerMode parses a planner mode flag value ("cost" or "off").
func ParsePlannerMode(s string) (PlannerMode, error) {
	switch PlannerMode(s) {
	case PlannerCost:
		return PlannerCost, nil
	case PlannerOff:
		return PlannerOff, nil
	}
	return "", fmt.Errorf("renum: planner mode must be %q or %q (got %q)", PlannerCost, PlannerOff, s)
}

// WithPlanner selects the join-tree planning mode (default PlannerCost).
// Planning applies to static CQs; a shard daemon plans the whole query on
// the full database before SliceView cuts its window, so a fleet picks the
// same tree deterministically. Dynamic handles and snapshot restores skip
// planning: updates rebuild incrementally on the original tree, and a
// restored index already embodies the tree recorded at save time.
func WithPlanner(mode PlannerMode) Option {
	return func(c *config) { c.planner = mode }
}

// Open builds the probe structure for q over db and wraps it in a Handle:
// the single entry point of the library. q is a *CQ or a *UCQ; options pick
// the backend variant. Open fails with ErrCyclic / ErrNotFreeConnex /
// ErrIncompatible / ErrNotFull exactly as the underlying preparation does,
// and with ErrCountOverflow when a static index would have more answers
// than an int64 position can address.
func Open(db *Database, q Query, opts ...Option) (*Handle, error) {
	if db == nil {
		return nil, errors.New("renum: Open: nil database")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	switch q := q.(type) {
	case *CQ:
		if cfg.dynamic {
			if cfg.canonical {
				return nil, fmt.Errorf("renum: WithCanonical with WithDynamic: %w", ErrUnsupported)
			}
			t0 := time.Now()
			idx, err := dynaccess.New(db, q)
			if err != nil {
				return nil, err
			}
			if cfg.buildObserve != nil {
				cfg.buildObserve("dynamic_build", time.Since(t0))
			}
			return &Handle{b: daBackend{idx}, workers: cfg.workers}, nil
		}
		var pl *plan.Plan
		if cfg.planner != PlannerOff {
			// A planning error leaves q as parsed; the build below surfaces
			// the same condition with its usual typed error.
			q, pl, _ = plan.ChooseCQ(db, q, plan.ModeCost)
		}
		c, err := cqenum.PrepareWithOptions(db, q,
			reduce.Options{CanonicalOrder: cfg.canonical, Observe: cfg.buildObserve},
			access.BuildOptions{Workers: cfg.workers, Observe: cfg.buildObserve})
		if err != nil {
			return nil, err
		}
		return &Handle{b: cqBackend{c: c, plan: pl}, workers: cfg.workers}, nil
	case *UCQ:
		if cfg.dynamic {
			return nil, fmt.Errorf("renum: WithDynamic requires a single full CQ, got a union: %w", ErrUnsupported)
		}
		t0 := time.Now()
		m, err := mcucq.New(db, q, mcucq.Options{
			Reduce:  reduce.Options{CanonicalOrder: cfg.canonical},
			Workers: cfg.workers,
		})
		if err != nil {
			return nil, err
		}
		if cfg.buildObserve != nil {
			cfg.buildObserve("union_build", time.Since(t0))
		}
		return &Handle{b: newUABackend(m, q), workers: cfg.workers}, nil
	default:
		// Unreachable while Query stays sealed (q == nil aside).
		return nil, fmt.Errorf("renum: Open: unsupported query type %T", q)
	}
}

// Handle is a prepared query with a uniform probe surface. The shared
// operations — Count, Access, AccessInto, AccessBatch, Page, Head — work on
// every handle; optional facilities are discovered through Capabilities or
// the typed accessors (Inverter, Updater, Sampler, Container), which fail
// with ErrUnsupported instead of forcing callers to know the backend type.
//
// Handles over static backends (KindCQ, KindUCQ) are immutable and freely
// shareable across goroutines with no locking; a KindDynamic handle is
// internally synchronized. The iterators returned by All and Shuffled are
// single-consumer cursors over the shared index: give each consumer its own.
type Handle struct {
	b       backend
	workers int
}

// Kind names the backend family. Use it for diagnostics; branch on
// Capabilities for behavior.
func (h *Handle) Kind() Kind { return h.b.kind() }

// Count returns |Q(D)| in constant time.
func (h *Handle) Count() int64 { return h.b.Count() }

// Head returns the output variable order.
func (h *Handle) Head() []string { return h.b.Head() }

// Access returns the j-th answer (0-based) of the enumeration order, or
// ErrOutOfBounds outside [0, Count()). Its only allocation is the returned
// tuple; use AccessInto to avoid it.
func (h *Handle) Access(j int64) (Tuple, error) { return probe(h.b, j) }

// AccessInto is Access writing into a caller-provided buffer, which must
// have length len(Head()) — a mismatched buffer is rejected with a
// descriptive error on every backend. On the static backends — CQ and UCQ —
// the probe itself is allocation-free.
func (h *Handle) AccessInto(j int64, buf Tuple) error {
	if err := checkBufArity(buf, len(h.b.Head())); err != nil {
		return err
	}
	return h.b.AccessInto(j, buf)
}

// AccessBatch returns Access(j) for every j in js, in order, fanning the
// probes out over the handle's worker budget (WithWorkers). The batch is
// validated up front: one out-of-range position fails the whole call with
// ErrOutOfBounds before any answer is assembled. (A dynamic handle validates
// and answers the batch under one acquisition of its read lock, so no update
// lands inside it.) Duplicates are allowed and yield equal answers.
func (h *Handle) AccessBatch(js []int64) ([]Tuple, error) {
	return h.b.accessBatchContext(context.Background(), js, h.workers)
}

// AccessBatchContext is AccessBatch honoring cancellation between probe
// chunks: when ctx is cancelled mid-batch, the remaining chunks are dropped
// and ctx.Err() is returned; chunks already in flight complete into their
// own buffers, so no partial or torn answer ever escapes and concurrent
// batches are unaffected.
func (h *Handle) AccessBatchContext(ctx context.Context, js []int64) ([]Tuple, error) {
	return h.b.accessBatchContext(orBackground(ctx), js, h.workers)
}

// AccessBatchInto is AccessBatch on the calling goroutine into rows the
// caller owns: rows[i], of length len(Head()), receives the answer at
// js[i]. The CQ backend resolves the batch with its grouped probe, the
// others probe position by position; the static backends allocate nothing. An
// out-of-range position fails the call with ErrOutOfBounds, leaving the
// rows' contents unspecified.
func (h *Handle) AccessBatchInto(js []int64, rows []Tuple) error {
	if len(rows) != len(js) {
		return fmt.Errorf("renum: AccessBatchInto: %d rows for %d positions", len(rows), len(js))
	}
	arity := len(h.b.Head())
	for _, row := range rows {
		if err := checkBufArity(row, arity); err != nil {
			return err
		}
	}
	return accessBatchInto(h.b, js, rows)
}

// batchFiller marks backends that resolve a batch into caller-owned rows
// better than one AccessInto per position.
type batchFiller interface {
	accessBatchInto(js []int64, rows []Tuple) error
}

func accessBatchInto(b backend, js []int64, rows []Tuple) error {
	if f, ok := b.(batchFiller); ok {
		return f.accessBatchInto(js, rows)
	}
	for i, j := range js {
		if err := b.AccessInto(j, rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// Page returns answers offset..offset+limit-1 of the enumeration order with
// O(log |D|) cost per row regardless of offset. Short pages at the end are
// returned without error; an offset at or past Count() yields an empty page;
// a negative offset or limit is ErrOutOfBounds. On a dynamic handle the
// count may move between the clamp and the probes, in which case the shifted
// positions surface as ErrOutOfBounds.
func (h *Handle) Page(offset, limit int64) ([]Tuple, error) {
	return h.PageContext(context.Background(), offset, limit)
}

// PageContext is Page honoring cancellation between probe chunks.
func (h *Handle) PageContext(ctx context.Context, offset, limit int64) ([]Tuple, error) {
	js, err := pagePositions(offset, limit, h.Count())
	if err != nil || js == nil {
		return nil, err
	}
	return h.b.accessBatchContext(orBackground(ctx), js, h.workers)
}

// orBackground normalizes a nil context: every public context-aware entry
// point tolerates nil the way the stdlib's http does, taking the
// never-cancellable fast path.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Explain renders the compiled plan (CapExplain), or ErrUnsupported.
func (h *Handle) Explain() (string, error) {
	if s, ok := explain(h.b); ok {
		return s, nil
	}
	return "", fmt.Errorf("explain: %w (kind %s)", ErrUnsupported, h.Kind())
}

// capabilityOrder fixes the (stable) order Capabilities reports.
var capabilityOrder = []Capability{
	CapEnumerate, CapContains, CapInvert, CapSample, CapUpdate, CapExplain, CapSnapshot,
}

// Has reports whether the handle supports c.
func (h *Handle) Has(c Capability) bool {
	switch c {
	case CapEnumerate:
		// The order is stable exactly when nothing can update the index.
		_, mutable := h.b.(Updater)
		return !mutable
	case CapInvert:
		_, ok := h.b.(Inverter)
		return ok
	case CapUpdate:
		_, ok := h.b.(Updater)
		return ok
	case CapSample:
		return true // every backend has random access, which is all sampling needs
	case CapContains:
		_, ok := h.b.(Container)
		return ok
	case CapExplain:
		_, ok := explain(h.b)
		return ok
	case CapSnapshot:
		_, ok := h.b.(snapshotter)
		return ok
	default:
		return false
	}
}

// Capabilities lists the optional facilities this handle supports, in a
// stable order. The shared surface (Count/Access/AccessInto/AccessBatch/
// Page/Head) is always present and not listed.
func (h *Handle) Capabilities() []Capability {
	out := make([]Capability, 0, len(capabilityOrder))
	for _, c := range capabilityOrder {
		if h.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// Inverter returns the inverted-access capability, or ErrUnsupported (e.g.
// union backends: mc-UCQ has no inverted primitive).
func (h *Handle) Inverter() (Inverter, error) {
	if v, ok := h.b.(Inverter); ok {
		return v, nil
	}
	return nil, fmt.Errorf("inverted access: %w (kind %s)", ErrUnsupported, h.Kind())
}

// Updater returns the update capability, or ErrUnsupported (static
// backends; open with WithDynamic to accept updates).
func (h *Handle) Updater() (Updater, error) {
	if v, ok := h.b.(Updater); ok {
		return v, nil
	}
	return nil, fmt.Errorf("update: %w (kind %s is a static index; open with WithDynamic)", ErrUnsupported, h.Kind())
}

// compactor is the internal rebuild-aside seam: backends that accumulate
// garbage under updates (tombstones in the dynamic index) can produce a
// fresh, equivalent backend for publication as a new generation.
type compactor interface {
	compactAside() (backend, error)
}

// CompactAside returns a freshly rebuilt handle over the same logical
// contents, or ErrUnsupported for backends with nothing to compact (static
// indexes never accumulate garbage). The rebuild happens aside — the
// source handle keeps serving probes and updates while the copy is
// assembled — and the result enumerates byte-identically to the source,
// including the positions future re-inserts revive at. The registry's
// compactor publishes the result with its usual atomic swap.
func (h *Handle) CompactAside() (*Handle, error) {
	c, ok := h.b.(compactor)
	if !ok {
		return nil, fmt.Errorf("compact: %w (kind %s)", ErrUnsupported, h.Kind())
	}
	b, err := c.compactAside()
	if err != nil {
		return nil, err
	}
	return &Handle{b: b, workers: h.workers}, nil
}

// Sampler returns the uniform-sampling capability bound to the handle's
// worker budget (WithWorkers). Every backend samples, so the error is always
// nil; the signature matches the other typed accessors.
func (h *Handle) Sampler() (Sampler, error) { return handleSampler{h}, nil }

// replacementSampler marks the one backend that does not sample by the
// shuffle's prefix: the dynamic index draws with replacement under its own
// lock, so that no update lands inside a batch.
type replacementSampler interface {
	SampleN(k int64, rng *rand.Rand) ([]Tuple, error)
}

// handleSampler is the Sampler of a Handle.
type handleSampler struct{ h *Handle }

// SampleN on a static backend is the first k draws of Theorem 3.7's shuffle
// — distinct positions, no rejection — resolved as one batch under the
// handle's worker budget (the draws are identical for any worker count).
func (s handleSampler) SampleN(k int64, rng *rand.Rand) ([]Tuple, error) {
	if own, ok := s.h.b.(replacementSampler); ok {
		return own.SampleN(k, rng)
	}
	if k < 0 {
		return nil, ErrOutOfBounds
	}
	// k may be a "drain everything" value: Draw sizes by what is left.
	js := shuffle.New(s.h.Count(), rng).Draw(nil, k)
	return s.h.b.accessBatchContext(context.Background(), js, s.h.workers)
}

func (s handleSampler) Distinct() bool {
	_, own := s.h.b.(replacementSampler)
	return !own
}

// Container returns the membership-testing capability, or ErrUnsupported.
func (h *Handle) Container() (Container, error) {
	if v, ok := h.b.(Container); ok {
		return v, nil
	}
	return nil, fmt.Errorf("contains: %w (kind %s)", ErrUnsupported, h.Kind())
}

// All returns the answers in the enumeration order as an iterator:
//
//	for t, err := range h.All() {
//	    if err != nil { ... }
//	    ...
//	}
//
// The sequence is byte-identical to Access(0..Count()-1), with logarithmic
// delay per answer. It requires
// CapEnumerate; on a dynamic handle the iterator yields a single
// (nil, ErrUnsupported) pair, because updates shift positions and "each
// answer exactly once" cannot be promised across probes. The iterator is a
// single-consumer cursor; the handle itself may be shared. Like Shuffled it
// resolves its positions in ramping chunks.
func (h *Handle) All() iter.Seq2[Tuple, error] {
	return h.AllContext(context.Background())
}

// AllContext is All honoring cancellation: after ctx is cancelled the
// iterator yields one (nil, ctx.Err()) pair and stops.
func (h *Handle) AllContext(ctx context.Context) iter.Seq2[Tuple, error] {
	return func(yield func(Tuple, error) bool) {
		if !h.Has(CapEnumerate) {
			yield(nil, fmt.Errorf("enumerate: %w (kind %s)", ErrUnsupported, h.Kind()))
			return
		}
		next, n := int64(0), h.Count()
		h.drain(orBackground(ctx), func(js []int64, k int64) []int64 {
			for end := min(next+k, n); next < end; next++ {
				js = append(js, next)
			}
			return js
		}, yield)
	}
}

// Shuffled returns a uniformly random permutation of the answers as an
// iterator (REnum: lazy Fisher–Yates over random access, logarithmic delay,
// each answer exactly once). The sequence is byte-identical to draining
// Permute(rng) with the same rng. Like All it requires CapEnumerate and the
// iterator is single-consumer.
//
// Positions are drawn, and their answers resolved by one batched probe, in
// chunks of 1, 1, 2, 4, … up to 64: the first answer costs one draw and one
// probe, and a consumer that stops after m answers has taken fewer than
// 2m + 1 draws from rng — the draw-ahead is never more than the answers
// already consumed, and never more than 64.
func (h *Handle) Shuffled(rng *rand.Rand) iter.Seq2[Tuple, error] {
	return h.ShuffledContext(context.Background(), rng)
}

// ShuffledContext is Shuffled honoring cancellation: after ctx is cancelled
// the iterator yields one (nil, ctx.Err()) pair and stops.
func (h *Handle) ShuffledContext(ctx context.Context, rng *rand.Rand) iter.Seq2[Tuple, error] {
	return func(yield func(Tuple, error) bool) {
		if !h.Has(CapEnumerate) {
			yield(nil, fmt.Errorf("shuffled enumeration: %w (kind %s)", ErrUnsupported, h.Kind()))
			return
		}
		// Permute is this shuffle over the count, one draw per answer;
		// drawing here is what lets a chunk be batched.
		h.drain(orBackground(ctx), shuffle.New(h.Count(), rng).Draw, yield)
	}
}

// drainChunk caps the chunks of drain: enough probes for a batch to overlap
// their cache misses, few enough that the draw-ahead stays small.
const drainChunk = 64

// drain yields the answers at the positions draw hands out — draw(js, k)
// appends up to k further positions to js, none at the end — until draw or
// the consumer stops. Chunks ramp 1, 1, 2, 4, … drainChunk: each is as large
// as everything yielded before it. A chunk is one serial batched probe on
// this goroutine into one freshly allocated backing array (the consumer may
// keep its answers); ctx is polled before every yield, which is cheaper
// than ctx.Err()'s lock and exact — no answer is handed out after a
// cancellation.
func (h *Handle) drain(ctx context.Context, draw func(js []int64, k int64) []int64, yield func(Tuple, error) bool) {
	done := ctx.Done()
	arity := len(h.b.Head())
	js := make([]int64, 0, drainChunk)
	rows := make([]Tuple, drainChunk)
	for yielded := int64(0); ; yielded += int64(len(js)) {
		js = draw(js[:0], min(max(yielded, 1), drainChunk))
		if len(js) == 0 {
			return
		}
		backing := make([]Value, len(js)*arity)
		rows = rows[:len(js)]
		for i := range rows {
			rows[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
		}
		if err := accessBatchInto(h.b, js, rows); err != nil {
			yield(nil, err)
			return
		}
		for _, t := range rows {
			if done != nil {
				select {
				case <-done:
					yield(nil, ctx.Err())
					return
				default:
				}
			}
			if !yield(t, nil) {
				return
			}
		}
	}
}

// Permute returns the random permutation of Shuffled as a cursor with
// Next / NextN / NextNContext, whose batches fan out over the handle's
// worker budget, or ErrUnsupported without CapEnumerate. This is Theorem 3.7
// and the one place it is assembled: any backend with a count and random
// access gets a uniformly random order from a lazy Fisher–Yates shuffle of
// its positions.
func (h *Handle) Permute(rng *rand.Rand) (*Permutation, error) {
	if !h.Has(CapEnumerate) {
		return nil, fmt.Errorf("permute: %w (kind %s)", ErrUnsupported, h.Kind())
	}
	at := func(j int64) (Tuple, error) { return probe(h.b, j) }
	return &Permutation{p: shuffle.NewPermutation(h.Count(), rng, at, h.b.accessBatchContext), workers: h.workers}, nil
}

// ---------------------------------------------------------------- backends

// cqBackend serves a Handle from one prepared CQ: the Theorem 4.3 index. A
// snapshot-restored entry is the same backend with no reduction to show
// (c.FullJoin == nil), which is all that separates it from a built one.
type cqBackend struct {
	c *cqenum.CQ
	// plan records the atom order Open compiled this index in under
	// PlannerCost (nil for PlannerOff and for restores).
	plan *plan.Plan
}

func (cqBackend) kind() Kind { return KindCQ }

func (b cqBackend) Count() int64   { return b.c.Index.Count() }
func (b cqBackend) Head() []string { return b.c.Index.Head() }

func (b cqBackend) AccessInto(j int64, buf Tuple) error { return b.c.Index.AccessInto(j, buf) }

func (b cqBackend) accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error) {
	return b.c.Index.AccessBatchContext(ctx, js, workers)
}

func (b cqBackend) accessBatchInto(js []int64, rows []Tuple) error {
	return b.c.Index.AccessBatchInto(js, rows)
}

func (b cqBackend) InvertedAccess(t Tuple) (int64, bool) { return b.c.Index.InvertedAccess(t) }

func (b cqBackend) Contains(t Tuple) bool { return b.c.Index.Contains(t) }

// explain renders the planned atom order (when the planner ran), followed
// by the reduced full-join tree with node schemas, cardinalities and join
// attributes.
func (b cqBackend) explain() (string, bool) {
	if b.c.FullJoin == nil {
		return "", false
	}
	if b.plan != nil {
		return b.plan.Explain() + b.c.FullJoin.Explain(), true
	}
	return b.c.FullJoin.Explain(), true
}

// uaBackend serves a Handle from the Theorem 5.5 structure of a
// mutually-compatible union. It has no Inverter — mc-UCQ has no
// inverted-access primitive, which is exactly what ErrUnsupported surfaces —
// and no plan to explain.
type uaBackend struct {
	m    *mcucq.MCUCQ
	head []string
	// u is the union as compiled; snapshots record it so restore pairs the
	// saved indexes with the right disjuncts.
	u *query.UCQ
}

// newUABackend wraps a built or restored structure. Every disjunct shares
// the first's output arity and position i of each disjunct head is output
// column i, so the first disjunct's names are the union's output order.
func newUABackend(m *mcucq.MCUCQ, u *query.UCQ) uaBackend {
	return uaBackend{m: m, head: append([]string(nil), u.Disjuncts[0].Head...), u: u}
}

func (uaBackend) kind() Kind { return KindUCQ }

func (b uaBackend) Count() int64   { return b.m.Count() }
func (b uaBackend) Head() []string { return b.head }

// AccessInto is O(2^m log |D|) whenever no intersection has more answers
// than its index has tuples (the rank fences of internal/mcucq then leave
// nothing to probe for), and never worse than Theorem 5.5's O(2^m log² |D|).
func (b uaBackend) AccessInto(j int64, buf Tuple) error { return b.m.AccessInto(j, buf) }

func (b uaBackend) accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error) {
	return b.m.AccessBatchContext(ctx, js, workers)
}

func (b uaBackend) Contains(t Tuple) bool { return b.m.Test(t) }
