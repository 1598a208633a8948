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
//   - a UCQ handle (REnum(mcUCQ), Theorem 5.5): for mutually-compatible UCQs,
//     true random access in O(log² |D|) — O(log |D|) whenever no intersection
//     has more answers than its index has tuples — and a random permutation
//     with that worst-case delay.
//
// The paper's experimental workload (TPC-H generator, query suite, baseline
// samplers and figure-by-figure harness) lives under internal/ and is driven
// by cmd/replicate; the README's "Architecture" section holds the design
// notes and its "Layout" section says where each piece of the workload is.
//
// # One constructor, capability discovery
//
// Open is the only way to build an index: it takes a CQ or a UCQ plus
// functional options (WithCanonical, WithDynamic, WithVerify, WithWorkers,
// …) and returns a *Handle exposing the shared probe surface —
// Count, Access, AccessInto, AccessBatch, Page, Head — uniformly over every
// backend. OpenSnapshot and SliceView hand out the same Handle over a
// restored index and over a window of another handle. Optional facilities
// are discovered through Handle.Capabilities or the typed accessors
// (Inverter, Updater, Sampler, Container, Explain), which fail with the
// ErrUnsupported sentinel instead of making callers know which structure
// serves them. Enumeration is iterator-native: Handle.All and
// Handle.Shuffled return iter.Seq2[Tuple, error] cursors, and
// Handle.Permute returns the same random order as a Next/NextN cursor. The
// batch, page and enumeration entry points have context.Context variants
// that honor cancellation between probe chunks.
//
// NewRandomOrderUnion is the one constructor beside Open, and it is separate
// on purpose. Algorithm 5 is a single-use cursor, not an index: the paper
// proves that a union of free-connex CQs may admit no random access at all,
// so the cursor cannot offer a Handle's shared surface (no Count, no
// Access) — it only enumerates, once, consuming its rng.
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
//   - Static handles (KindCQ, KindUCQ, and every SliceView or
//     snapshot-restored handle over them) are immutable after construction.
//     Every probe (Count, Access, AccessBatch, Page, InvertedAccess,
//     Contains, SampleN) only reads the index — there is no lazy memoization
//     on the probe path — so one handle may be shared by any number of
//     goroutines with no locking. This is enforced by `-race` hammer tests
//     in internal/access, internal/mcucq and at the package root.
//   - A KindDynamic handle mutates under Insert/Delete and is internally
//     synchronized with a readers–writer lock: concurrent readers
//     interleave freely and writers are exclusive, so a shared dynamic
//     handle is safe under mixed traffic.
//   - The stateful cursors (the All and Shuffled iterators, Permutation,
//     RandomOrderUnion) are single-consumer: share the handle, not the
//     cursor. Permutation.NextN lets a single consumer fan its probes across
//     cores.
//
// Index construction parallelizes automatically: independent join-tree
// subtrees build on a worker pool once the input exceeds
// access.DefaultSerialThreshold tuples (small inputs build serially —
// goroutine overhead would dominate), and UCQ preparation builds its
// disjunct and intersection indexes concurrently. Parallel and serial
// builds produce identical structures, so the enumeration order never
// depends on the worker count.
//
// The batched APIs (AccessBatch, Page, Sampler.SampleN, Permutation.NextN)
// amortize per-probe overhead and fan out across the handle's worker budget
// (WithWorkers) — they are the preferred way to drain many positions from
// one caller.
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
	"repro/internal/hypergraph"
	"repro/internal/mcucq"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/shuffle"
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

// Permutation yields each answer exactly once, in uniformly random order:
// Theorem 3.7's lazy Fisher–Yates shuffle over a handle's Count and Access.
// Handle.Permute is the only place one is built. It is a single-consumer
// cursor: drive it from one goroutine (the handle may be shared freely).
type Permutation struct {
	b       backend
	shuf    *shuffle.Shuffler
	workers int
}

// Next returns the next answer of the permutation; ok is false at the end.
// This is the paper's loop as written: one draw, one probe, one answer.
func (p *Permutation) Next() (Tuple, bool) {
	j, ok := p.shuf.Next()
	if !ok {
		return nil, false
	}
	// The shuffler only emits positions below Count(): the probe cannot fail.
	t, err := probe(p.b, j)
	return t, err == nil
}

// NextN returns the next k answers of the permutation (fewer at the end,
// empty once exhausted). The emitted sequence is identical to k calls of
// Next, but the underlying random-access probes are one batch, fanned out
// across the handle's worker budget — the batched form of random-order
// enumeration.
func (p *Permutation) NextN(k int64) []Tuple {
	ts, _ := p.NextNContext(context.Background(), k)
	return ts
}

// NextNContext is NextN honoring cancellation between probe chunks: when ctx
// is cancelled mid-batch the call returns ctx.Err(). The k random draws are
// made serially up front (identical rng consumption to NextN), so a
// cancelled batch consumes its draws and discards the answers — the cursor
// stays valid and simply skips them, which is the right behavior for an
// abandoned network request draining a shared permutation.
func (p *Permutation) NextNContext(ctx context.Context, k int64) ([]Tuple, error) {
	if k < 0 {
		return nil, nil
	}
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.shuf == nil {
		return nil, nil // a zero Permutation drains empty
	}
	// k may be a "drain everything" value: Draw sizes by what is left.
	return p.b.accessBatchContext(ctx, p.shuf.Draw(nil, k), p.workers)
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
