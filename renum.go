// Package renum is a Go implementation of "Answering (Unions of) Conjunctive
// Queries using Random Access and Random-Order Enumeration" (Carmeli, Zeevi,
// Berkholz, Kimelfeld, Schweikardt — PODS 2020).
//
// Given an in-memory relational database and a free-connex conjunctive query
// (CQ), the library builds — in time linear in the database — an index that
// supports:
//
//   - Count:          |Q(D)| in O(1);
//   - Access(j):      the j-th answer of a fixed enumeration order in
//     O(log |D|) (Theorem 4.3, Algorithms 2–3);
//   - InvertedAccess: answer → j in O(1) (Algorithm 4);
//   - a uniformly random permutation of the answers with O(log |D|) delay
//     (Theorem 3.7: Fisher–Yates over random access).
//
// For unions of free-connex CQs (UCQs) it offers two random-order
// enumerators:
//
//   - RandomOrderUnion (REnum(UCQ), Algorithm 5): works for every union of
//     free-connex CQs, delay logarithmic in expectation (Theorem 5.4);
//   - UnionAccess (REnum(mcUCQ), Theorem 5.5): for mutually-compatible UCQs,
//     true random access in O(log² |D|) — O(log |D|) whenever no intersection
//     has more answers than its index has tuples — and a random permutation
//     with that worst-case delay.
//
// The paper's experimental workload (TPC-H generator, query suite, baseline
// samplers and figure-by-figure harness) lives under internal/ and is driven
// by cmd/replicate; see DESIGN.md and EXPERIMENTS.md.
//
// # One constructor, capability discovery
//
// Open is the entry point: it takes a CQ or a UCQ plus functional options
// (WithCanonical, WithDynamic, WithVerify, WithWorkers) and returns a
// *Handle exposing the shared probe surface — Count, Access, AccessInto,
// AccessBatch, Page, Head, Explain — uniformly over every backend. Optional
// facilities are discovered through Handle.Capabilities or the typed
// accessors (Inverter, Updater, Sampler, Container), which fail with the
// ErrUnsupported sentinel instead of making callers type-switch on concrete
// index types. Enumeration is iterator-native: Handle.All and
// Handle.Shuffled return iter.Seq2[Tuple, error] cursors, with Enumerator
// and Permutation kept as thin adapters. The batch, page and enumeration
// entry points have context.Context variants that honor cancellation
// between probe chunks.
//
// The concrete types below (RandomAccess, UnionAccess, DynamicAccess,
// RandomOrderUnion) remain as the underlying machinery and for
// code written against the pre-Handle API.
//
// # Persistent snapshots
//
// Static handles persist: SaveSnapshot writes a whole compiled catalog
// (dictionary, relations, indexes) into a versioned, checksummed binary
// file, and OpenSnapshot restores it in O(open+validate) — numeric sections
// are zero-copy views of the file mapping, so a process restart skips
// preprocessing entirely. The save capability is discovered like every
// other one (CapSnapshot); dynamic handles stay heap-only and report so.
// Decode failures are typed (ErrSnapshotInvalid) and never panic.
//
// # Concurrency
//
// The library is built to serve heavy concurrent read traffic:
//
//   - RandomAccess and UnionAccess are immutable after construction. Every
//     probe (Count, Access, AccessBatch, InvertedAccess, Contains, Page,
//     PageParallel, SampleN, SampleK) only reads the index — there is no
//     lazy memoization on the probe path — so one index may be shared by any
//     number of goroutines with no locking. This is enforced by `-race`
//     hammer tests in internal/access, internal/mcucq and at the package
//     root.
//   - DynamicAccess mutates under Insert/Delete and is internally
//     synchronized with a readers–writer lock: concurrent readers
//     interleave freely and writers are exclusive, so a shared dynamic
//     index is safe under mixed traffic.
//   - The stateful cursors (Enumerator, Permutation, RandomOrderUnion) are
//     single-consumer: share the index, not the cursor. Permutation.NextN
//     lets a single consumer fan its probes across cores.
//
// Index construction parallelizes automatically: independent join-tree
// subtrees build on a worker pool once the input exceeds
// access.DefaultSerialThreshold tuples (small inputs build serially —
// goroutine overhead would dominate), and UCQ preparation builds its
// disjunct and intersection indexes concurrently. Parallel and serial
// builds produce identical structures, so the enumeration order never
// depends on the worker count.
//
// The batched APIs (AccessBatch, SampleN, PageParallel, Permutation.NextN)
// amortize per-probe overhead and fan out across goroutines internally —
// they are the preferred way to drain many positions from one caller.
//
// # Quick start
//
//	db := renum.NewDatabase()
//	r := db.MustCreate("R", "a", "b")
//	r.MustInsert(1, 2)
//	// Q(a, b) :- R(a, b)
//	q := renum.MustCQ("Q", []string{"a", "b"}, renum.NewAtom("R", renum.V("a"), renum.V("b")))
//	h, err := renum.Open(db, q)
//	...
//	for t, err := range h.Shuffled(rand.New(rand.NewSource(1))) { ... }
package renum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/hypergraph"
	"repro/internal/mcucq"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/unionenum"
)

// Re-exported data-model types. See internal/relation for full method docs.
type (
	// Database maps relation names to relations and owns the string
	// dictionary of the instance.
	Database = relation.Database
	// Relation is a named, schema'd set of tuples (insertion-ordered).
	Relation = relation.Relation
	// Schema is an ordered attribute-name list.
	Schema = relation.Schema
	// Tuple is an ordered list of values.
	Tuple = relation.Tuple
	// Value is a dictionary-encoded attribute value.
	Value = relation.Value
	// Dict interns strings as Values.
	Dict = relation.Dict
)

// Re-exported query-model types. See internal/query.
type (
	// CQ is a conjunctive query Q(x̄) :- R1(t̄1), ..., Rn(t̄n).
	CQ = query.CQ
	// UCQ is a union of CQs with equal head arity.
	UCQ = query.UCQ
	// Atom is a relational atom R(t̄).
	Atom = query.Atom
	// Term is a variable or constant inside an atom.
	Term = query.Term
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return relation.NewDatabase() }

// V returns a variable term; C returns a constant term.
func V(name string) Term { return query.V(name) }

// C returns a constant term.
func C(v Value) Term { return query.C(v) }

// NewAtom builds an atom R(terms...).
func NewAtom(rel string, terms ...Term) Atom { return query.NewAtom(rel, terms...) }

// NewCQ builds and validates a conjunctive query.
func NewCQ(name string, head []string, body []Atom) (*CQ, error) {
	return query.NewCQ(name, head, body)
}

// MustCQ is NewCQ that panics on error.
func MustCQ(name string, head []string, body ...Atom) *CQ {
	return query.MustCQ(name, head, body...)
}

// NewUCQ builds and validates a union of CQs.
func NewUCQ(name string, disjuncts ...*CQ) (*UCQ, error) {
	return query.NewUCQ(name, disjuncts...)
}

// MustUCQ is NewUCQ that panics on error.
func MustUCQ(name string, disjuncts ...*CQ) *UCQ {
	return query.MustUCQ(name, disjuncts...)
}

// IsAcyclic reports whether the CQ's hypergraph is α-acyclic.
func IsAcyclic(q *CQ) bool { return hypergraph.IsAcyclicCQ(q) }

// IsFreeConnex reports whether the CQ is free-connex acyclic — the exact
// class for which this library guarantees linear preprocessing and
// logarithmic random access (and, for self-join-free CQs, the exact
// tractability frontier under the paper's fine-grained hypotheses).
func IsFreeConnex(q *CQ) bool { return hypergraph.IsFreeConnex(q) }

// Errors surfaced by preparation.
var (
	// ErrCyclic: the query's hypergraph is cyclic.
	ErrCyclic = reduce.ErrCyclic
	// ErrNotFreeConnex: acyclic but not free-connex.
	ErrNotFreeConnex = reduce.ErrNotFreeConnex
	// ErrIncompatible: the UCQ is not mutually compatible (mc-UCQ access).
	ErrIncompatible = mcucq.ErrIncompatible
	// ErrCountOverflow: the query has more answers than an int64 position
	// can address, so no index is built.
	ErrCountOverflow = access.ErrCountOverflow
)

// RandomAccess is the Theorem 4.3 structure for one free-connex CQ.
type RandomAccess struct {
	c *cqenum.CQ
	// plan records the cost-based planner's candidate set when Open compiled
	// this index in PlannerCost mode (nil for the pre-Handle constructors,
	// PlannerOff, and snapshot restores).
	plan *plan.Plan
}

// NewRandomAccess builds the index in linear time. It returns ErrCyclic or
// ErrNotFreeConnex for unsupported queries.
func NewRandomAccess(db *Database, q *CQ) (*RandomAccess, error) {
	c, err := cqenum.Prepare(db, q, reduce.Options{})
	if err != nil {
		return nil, err
	}
	return &RandomAccess{c: c}, nil
}

// NewRandomAccessCanonical is NewRandomAccess with a canonical enumeration
// order: node relations are sorted before indexing, so Access(j) depends
// only on the database *content* — two databases holding the same facts in
// different insertion orders produce identical enumerations. Preprocessing
// becomes O(n log n) instead of linear.
func NewRandomAccessCanonical(db *Database, q *CQ) (*RandomAccess, error) {
	c, err := cqenum.Prepare(db, q, reduce.Options{CanonicalOrder: true})
	if err != nil {
		return nil, err
	}
	return &RandomAccess{c: c}, nil
}

// Count returns |Q(D)| in constant time.
func (r *RandomAccess) Count() int64 { return r.c.Count() }

// Access returns the j-th answer (0-based) of the fixed enumeration order.
// Its only allocation is the returned tuple; use AccessInto to avoid it.
func (r *RandomAccess) Access(j int64) (Tuple, error) { return r.c.Index.Access(j) }

// AccessInto is Access writing into a caller-provided buffer of length
// Count's arity (len(Head())). It is allocation-free — the probe walks the
// index's group-ID bucket tables with pure array arithmetic — and safe to
// call concurrently with any other probes (each goroutine needs its own
// buffer).
func (r *RandomAccess) AccessInto(j int64, buf Tuple) error {
	return r.c.Index.AccessInto(j, buf)
}

// AccessBatch returns Access(j) for every j in js, in order, fanning the
// O(log |D|) probes out over up to `workers` goroutines (workers <= 0 picks
// a default sized to the machine; small batches run serially either way).
// The batch is validated up front: any out-of-range position fails the
// whole call with ErrOutOfBounds before any answer is assembled. Duplicates
// are allowed and yield equal answers.
func (r *RandomAccess) AccessBatch(js []int64, workers int) ([]Tuple, error) {
	return r.c.Index.AccessBatch(js, workers)
}

// InvertedAccess returns the position of an answer, or ok=false if it is not
// an answer.
func (r *RandomAccess) InvertedAccess(t Tuple) (int64, bool) {
	return r.c.Index.InvertedAccess(t)
}

// Contains reports whether t ∈ Q(D).
func (r *RandomAccess) Contains(t Tuple) bool { return r.c.Index.Contains(t) }

// Head returns the output variable order.
func (r *RandomAccess) Head() []string { return r.c.Index.Head() }

// Explain renders the compiled plan: the planner's candidate set with costs
// and the winner (when cost-based planning ran), followed by the reduced
// full-join tree with node schemas, cardinalities and join attributes.
func (r *RandomAccess) Explain() string {
	if r.plan != nil {
		return r.plan.Explain() + r.c.FullJoin.Explain()
	}
	return r.c.FullJoin.Explain()
}

// OrderSpec returns the head variables in decreasing significance of the
// enumeration order. For an index built with NewRandomAccessCanonical, the
// enumeration order is exactly the lexicographic order of the answers under
// this variable sequence.
func (r *RandomAccess) OrderSpec() []string { return r.c.Index.OrderSpec() }

// Page returns answers offset..offset+limit-1 of the fixed enumeration order
// (the "first pages of search results" use case of the paper's introduction,
// with O(log |D|) cost per row regardless of offset — no need to skip over
// earlier rows). Short pages at the end of the result are returned without
// error; an offset at or past Count() yields an empty page.
func (r *RandomAccess) Page(offset, limit int64) ([]Tuple, error) {
	return r.PageParallel(offset, limit, 1)
}

// PageParallel is Page with the per-row Access probes fanned out over up to
// `workers` goroutines (workers <= 0 picks a default sized to the machine).
// Row order and content are identical to Page; only the wall-clock cost of
// assembling a large page changes.
func (r *RandomAccess) PageParallel(offset, limit int64, workers int) ([]Tuple, error) {
	js, err := pagePositions(offset, limit, r.Count())
	if err != nil || js == nil {
		return nil, err
	}
	return r.c.Index.AccessBatch(js, workers)
}

// checkBufArity is the single definition of the AccessInto buffer contract:
// the caller's buffer must match the output arity exactly.
func checkBufArity(buf Tuple, arity int) error {
	if len(buf) != arity {
		return fmt.Errorf("renum: AccessInto: buffer length %d does not match arity %d", len(buf), arity)
	}
	return nil
}

// pagePositions is the single definition of the Page clamp contract shared
// by every backend and the Handle: negative offset/limit is ErrOutOfBounds,
// an offset at or past n is an empty page (nil, nil), and a tail page is
// shortened. The clamp subtracts rather than adding offset+limit, which
// could overflow for limits near MaxInt64.
func pagePositions(offset, limit, n int64) ([]int64, error) {
	if offset < 0 || limit < 0 {
		return nil, ErrOutOfBounds
	}
	if offset >= n {
		return nil, nil
	}
	if limit > n-offset {
		limit = n - offset
	}
	js := make([]int64, limit)
	for i := range js {
		js[i] = offset + int64(i)
	}
	return js, nil
}

// Enumerate returns a deterministic logarithmic-delay enumerator.
func (r *RandomAccess) Enumerate() *Enumerator {
	e := r.c.Enumerate()
	return &Enumerator{next: e.Next}
}

// Permute returns a uniformly random permutation of the answers with
// logarithmic delay (REnum(CQ)).
func (r *RandomAccess) Permute(rng *rand.Rand) *Permutation {
	p := r.c.Permute(rng)
	return &Permutation{
		next:     p.Next,
		nextN:    func(k int64) []Tuple { return p.NextN(k, 0) },
		nextNCtx: func(ctx context.Context, k int64) ([]Tuple, error) { return p.NextNContext(ctx, k, 0) },
	}
}

// SampleK returns k uniformly random *distinct* answers (all of Q(D) if
// k ≥ Count()) in O(k log |D|): the first k steps of a lazy Fisher–Yates
// permutation — sampling without replacement needs no rejection at all,
// unlike the with-replacement baseline.
func (r *RandomAccess) SampleK(k int64, rng *rand.Rand) ([]Tuple, error) {
	if k < 0 {
		return nil, ErrOutOfBounds
	}
	if n := r.Count(); k > n {
		k = n
	}
	out := make([]Tuple, 0, k)
	p := r.c.Permute(rng)
	for int64(len(out)) < k {
		t, ok := p.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// SampleN is SampleK with the index probes fanned out across the default
// worker pool: the k distinct positions are drawn serially from the lazy
// Fisher–Yates shuffle (identical draws to SampleK for the same rng, hence
// the identical uniform-without-replacement distribution), and the k
// O(log |D|) accesses then run concurrently. Use it when k is large enough
// that random access dominates the draw.
func (r *RandomAccess) SampleN(k int64, rng *rand.Rand) ([]Tuple, error) {
	return raBackend{r}.sampleN(k, rng, 0)
}

// Enumerator yields answers in the index's fixed order. It is a thin
// single-consumer adapter over the iterator-native Handle.All / the index's
// sequential Access order; existing Next-loop call sites keep working
// unchanged.
type Enumerator struct {
	next func() (relation.Tuple, bool)
}

// Next returns the next answer; ok is false at the end.
func (e *Enumerator) Next() (Tuple, bool) { return e.next() }

// Permutation yields each answer exactly once, in uniformly random order.
// It is a single-consumer cursor: drive it from one goroutine (the
// underlying index may be shared freely).
type Permutation struct {
	next     func() (relation.Tuple, bool)
	nextN    func(k int64) []relation.Tuple
	nextNCtx func(ctx context.Context, k int64) ([]relation.Tuple, error)
}

// Next returns the next answer of the permutation; ok is false at the end.
func (p *Permutation) Next() (Tuple, bool) { return p.next() }

// NextN returns the next k answers of the permutation (fewer at the end,
// empty once exhausted). The emitted sequence is identical to k calls of
// Next, but the underlying random-access probes are fanned out across the
// worker pool — the batched form of random-order enumeration.
func (p *Permutation) NextN(k int64) []Tuple {
	if p.nextN != nil {
		return p.nextN(k)
	}
	c := k // initial capacity only: k may be "drain everything" (MaxInt64)
	if c > 1024 {
		c = 1024
	} else if c < 0 {
		c = 0
	}
	out := make([]Tuple, 0, c)
	for int64(len(out)) < k {
		t, ok := p.next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out
}

// NextNContext is NextN honoring cancellation between probe chunks: when ctx
// is cancelled mid-batch the call returns ctx.Err(). The k random draws are
// made serially up front (identical rng consumption to NextN), so a
// cancelled batch consumes its draws and discards the answers — the cursor
// stays valid and simply skips them, which is the right behavior for an
// abandoned network request draining a shared permutation.
func (p *Permutation) NextNContext(ctx context.Context, k int64) ([]Tuple, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Every constructor wires the batched context path; the guard only
	// protects a zero-value Permutation, whose draw is empty anyway.
	if p.nextNCtx == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return p.NextN(k), nil
	}
	return p.nextNCtx(ctx, k)
}

// RandomOrderUnion is REnum(UCQ) (Algorithm 5): a single-use random-order
// enumerator over a union of free-connex CQs, with expected-logarithmic
// delay.
type RandomOrderUnion struct {
	e *unionenum.Enumerator
}

// NewRandomOrderUnion prepares each disjunct (linear time) and returns the
// enumerator. The enumerator is single-use: Next consumes the union.
func NewRandomOrderUnion(db *Database, u *UCQ, rng *rand.Rand) (*RandomOrderUnion, error) {
	e, err := unionenum.NewFromUCQ(db, u, rng, reduce.Options{})
	if err != nil {
		return nil, err
	}
	return &RandomOrderUnion{e: e}, nil
}

// Next returns the next answer in uniformly random order, without
// repetitions; ok is false when the union is exhausted.
func (r *RandomOrderUnion) Next() (Tuple, bool) { return r.e.Next() }

// Rejections reports how many internal iterations were rejected so far (at
// most one per answer, which is what bounds the amortized delay).
func (r *RandomOrderUnion) Rejections() int64 { return r.e.Rejections }

// UnionAccess is REnum(mcUCQ) (Theorem 5.5): random access and random-order
// enumeration for mutually-compatible UCQs. Its probe surface is at parity
// with RandomAccess — Count, Access, AccessInto, AccessBatch, Page,
// PageParallel, SampleN, Contains, Head — so UCQ and CQ backends are
// interchangeable behind a Handle.
type UnionAccess struct {
	m    *mcucq.MCUCQ
	head []string
	// u is the union as compiled (after disjunct-order planning); snapshots
	// record it so restore pairs the saved indexes with the right disjuncts.
	u *query.UCQ
	// plan records the disjunct-order planning decision when Open compiled
	// this union in PlannerCost mode (nil otherwise).
	plan *plan.Plan
}

// NewUnionAccess prepares the disjuncts and all intersection CQs and
// assembles the union-trick access structure. It fails if some disjunct or
// intersection is not free-connex. When verify is true, order compatibility
// is checked explicitly (costs an enumeration of every intersection).
func NewUnionAccess(db *Database, u *UCQ, verify bool) (*UnionAccess, error) {
	return newUnionAccess(db, u, mcucq.Options{Verify: verify})
}

func newUnionAccess(db *Database, u *UCQ, opts mcucq.Options) (*UnionAccess, error) {
	m, err := mcucq.New(db, u, opts)
	if err != nil {
		return nil, err
	}
	// Every disjunct shares the first's output arity; position i of each
	// disjunct head is output column i, so the first disjunct's names are
	// the union's output order.
	head := append([]string(nil), u.Disjuncts[0].Head...)
	return &UnionAccess{m: m, head: head, u: u}, nil
}

// Count returns the number of answers of the union.
func (ua *UnionAccess) Count() int64 { return ua.m.Count() }

// Access returns the j-th answer of the union's enumeration order: O(2^m log |D|)
// whenever no intersection has more answers than its index has tuples (the
// rank fences of internal/mcucq then leave nothing to probe for), and never
// worse than Theorem 5.5's O(2^m log² |D|).
func (ua *UnionAccess) Access(j int64) (Tuple, error) { return ua.m.Access(j) }

// AccessInto is Access writing into a caller-provided buffer of length
// Head() arity. Like RandomAccess.AccessInto it allocates nothing: Algorithm
// 7's walk writes each candidate first-disjunct answer straight into buf and
// the last one written is the answer.
func (ua *UnionAccess) AccessInto(j int64, buf Tuple) error {
	if err := checkBufArity(buf, len(ua.head)); err != nil {
		return err
	}
	return ua.m.AccessInto(j, buf)
}

// Contains reports whether t is an answer of the union.
func (ua *UnionAccess) Contains(t Tuple) bool { return ua.m.Test(t) }

// Head returns the output variable order (the first disjunct's head names;
// position i of every disjunct is output column i).
func (ua *UnionAccess) Head() []string { return ua.head }

// AccessBatch returns Access(j) for every j in js, in order, with the union
// probes fanned out over up to `workers` goroutines (workers <= 0 picks a
// default sized to the machine). Validation and duplicate semantics match
// RandomAccess.AccessBatch.
func (ua *UnionAccess) AccessBatch(js []int64, workers int) ([]Tuple, error) {
	return ua.accessBatchContext(context.Background(), js, workers)
}

func (ua *UnionAccess) accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error) {
	return ua.m.AccessBatchContext(ctx, js, workers)
}

// Page returns answers offset..offset+limit-1 of the union's enumeration
// order, with the same clamping semantics as RandomAccess.Page: short pages
// at the end are returned without error, and an offset at or past Count()
// yields an empty page.
func (ua *UnionAccess) Page(offset, limit int64) ([]Tuple, error) {
	return ua.PageParallel(offset, limit, 1)
}

// PageParallel is Page with the per-row union probes fanned out over up to
// `workers` goroutines. Row order and content are identical to Page.
func (ua *UnionAccess) PageParallel(offset, limit int64, workers int) ([]Tuple, error) {
	js, err := pagePositions(offset, limit, ua.Count())
	if err != nil || js == nil {
		return nil, err
	}
	return ua.AccessBatch(js, workers)
}

// SampleN returns k uniformly random *distinct* answers of the union (all of
// them if k ≥ Count()): the first k steps of a lazy Fisher–Yates permutation
// over mc-UCQ random access, mirroring RandomAccess.SampleN — including the
// error shape (k < 0 is ErrOutOfBounds; an empty union yields an empty
// sample, not an error).
func (ua *UnionAccess) SampleN(k int64, rng *rand.Rand) ([]Tuple, error) {
	return uaBackend{ua}.sampleN(k, rng, 0)
}

// Permute returns a uniformly random permutation, one Access per answer.
func (ua *UnionAccess) Permute(rng *rand.Rand) *Permutation {
	p := ua.m.Permute(rng)
	return &Permutation{
		next:     p.Next,
		nextN:    func(k int64) []Tuple { return p.NextN(k, 0) },
		nextNCtx: func(ctx context.Context, k int64) ([]Tuple, error) { return p.NextNContext(ctx, k, 0) },
	}
}

// Evaluate materializes Q(D) with a straightforward join — no complexity
// guarantees; works for every CQ, including cyclic ones. Intended for small
// inputs, debugging, and as ground truth.
func Evaluate(db *Database, q *CQ) ([]Tuple, error) { return naive.Evaluate(db, q) }

// EvaluateUCQ materializes the union's answers (deduplicated).
func EvaluateUCQ(db *Database, u *UCQ) ([]Tuple, error) { return naive.EvaluateUCQ(db, u) }

// ErrOutOfBounds is returned by Access for positions outside [0, Count()).
var ErrOutOfBounds = access.ErrOutOfBounds

// IsOutOfBounds reports whether err indicates an out-of-range Access call.
func IsOutOfBounds(err error) bool { return errors.Is(err, ErrOutOfBounds) }
