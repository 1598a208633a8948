// Package cqenum assembles the per-CQ machinery of Section 4:
//
//   - Prepare: linear preprocessing — Proposition 4.2 reduction followed by
//     the Algorithm 2 index build (deterministic enumeration, Fact 3.5, is
//     Index.Access(0), Access(1), … on the result);
//   - Permute: REnum(CQ) — Theorem 3.7's permutation (shuffle.Permutation)
//     over the index's random access, a uniformly random order with O(log)
//     delay;
//   - DeletableSet: the Lemma 5.3 wrapper exposing Count / Sample / Locate /
//     DeleteAt over a CQ's answer set, consumed by Algorithm 5 (REnum(UCQ)).
//
// # Concurrency contract
//
// A prepared CQ is immutable: Count, Index probes and FullJoin inspection
// are safe from any number of goroutines. The stateful cursors handed out by
// Permute and NewDeletableSet are each single-consumer — share
// the CQ, not the cursor. RandomPermutation.NextN draws its positions
// serially and fans the index probes out across goroutines, so one consumer
// still saturates multiple cores.
package cqenum

import (
	"math/rand"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/shuffle"
)

// CQ is a prepared conjunctive query: the original query, the reduced full
// join it was compiled to, and the built random-access index.
type CQ struct {
	Query    *query.CQ
	FullJoin *reduce.FullJoin
	Index    *access.Index
}

// Prepare runs the Proposition 4.2 reduction and builds the Theorem 4.3
// index. It fails for cyclic or non-free-connex queries.
func Prepare(db *relation.Database, q *query.CQ, opts reduce.Options) (*CQ, error) {
	return PrepareWithOptions(db, q, opts, access.BuildOptions{})
}

// PrepareWithOptions is Prepare with explicit control over the index build's
// parallelism (worker count and serial threshold) — the hook the experiment
// harness and CLIs use to pin the builder's fan-out.
func PrepareWithOptions(db *relation.Database, q *query.CQ, opts reduce.Options, build access.BuildOptions) (*CQ, error) {
	fj, err := reduce.BuildFullJoin(db, q, opts)
	if err != nil {
		return nil, err
	}
	idx, err := access.NewWithOptions(fj, build)
	if err != nil {
		return nil, err
	}
	return &CQ{Query: q, FullJoin: fj, Index: idx}, nil
}

// Restore assembles a prepared CQ around an index restored from a snapshot:
// no reduction runs and FullJoin is nil — the restored form serves every
// probe (the index is self-contained) but cannot Explain its plan, which the
// capability surface reports.
func Restore(q *query.CQ, idx *access.Index) *CQ {
	return &CQ{Query: q, Index: idx}
}

// Count returns |Q(D)|.
func (c *CQ) Count() int64 { return c.Index.Count() }

// RandomPermutation enumerates the answers exactly once each, in a uniformly
// random order (REnum(CQ)): Theorem 3.7's permutation over the index's
// random access, with O(log |D|) delay.
type RandomPermutation = shuffle.Permutation[relation.Tuple]

// Permute starts a fresh random permutation of the answers.
func (c *CQ) Permute(rng *rand.Rand) *RandomPermutation {
	return shuffle.NewPermutation(c.Index.Count(), rng, c.Index.Access, c.Index.AccessBatchContext)
}

// DeletableSet implements Lemma 5.3: given counting, random access and
// inverted access, the answer set supports sampling, membership testing,
// deletion and counting, each in the same time bound. It is the per-CQ set
// handed to Algorithm 5, and speaks positions as unionenum.Set asks: an
// answer is inverted to its position once, by Locate, and deleted by it.
type DeletableSet struct {
	idx *access.Index
	del *shuffle.DeletionSet
}

// NewDeletableSet wraps the prepared query's answer set.
func (c *CQ) NewDeletableSet() *DeletableSet {
	return &DeletableSet{idx: c.Index, del: shuffle.NewDeletionSet(c.Index.Count())}
}

// Count returns the number of remaining (non-deleted) answers.
func (s *DeletableSet) Count() int64 { return s.del.Count() }

// Arity returns the length of the set's answers.
func (s *DeletableSet) Arity() int { return len(s.idx.Head()) }

// Sample writes a uniformly random remaining answer into buf, which must
// have the set's arity, and returns its position without removing it; ok is
// false when the set is empty.
func (s *DeletableSet) Sample(rng *rand.Rand, buf relation.Tuple) (pos int64, ok bool) {
	pos, ok = s.del.Sample(rng)
	if !ok || s.idx.AccessInto(pos, buf) != nil {
		return 0, false
	}
	return pos, true
}

// Locate returns the position of t if t is a remaining answer of this CQ:
// one inverted access and one lookup in the deletion table.
func (s *DeletableSet) Locate(t relation.Tuple) (pos int64, ok bool) {
	pos, ok = s.idx.InvertedAccess(t)
	if !ok || s.del.Deleted(pos) {
		return 0, false
	}
	return pos, true
}

// DeleteAt removes the answer at pos from the set, reporting whether it was
// remaining.
func (s *DeletableSet) DeleteAt(pos int64) bool { return s.del.Delete(pos) }
