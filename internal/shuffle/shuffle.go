// Package shuffle implements the paper's constant-delay random-permutation
// machinery:
//
//   - Shuffler: Algorithm 1 — a lazy Fisher–Yates shuffle emitting a uniform
//     permutation of 0..n-1 with O(1) preprocessing and O(1) delay, using a
//     lookup table to simulate the uninitialized array;
//   - Permutation: Theorem 3.7 — a Shuffler driving random access, which
//     enumerates any answer set with a count and random access in uniformly
//     random order; the CQ, mc-UCQ and Handle cursors are all this type;
//   - DeletionSet: the Section 5.1 structure — the same lazy array plus a
//     reverse index b, supporting Sample / Delete / Count over the index set
//     {0..n-1}, as required by Algorithm 5 (REnum(UCQ)) via Lemma 5.3.
//
// Shuffler and DeletionSet keep their lazy arrays in the flat open-addressed
// table of table.go, which grows and shrinks a bounded number of slots per
// operation: no call stops to rehash, and a structure holds memory for the
// positions still live in it, not for every position it ever touched.
package shuffle

import (
	"context"
	"math/rand"
	"slices"
)

// Shuffler emits a uniformly random permutation of 0..n-1, one element per
// Next call (Algorithm 1). The zero value is not usable; call New.
type Shuffler struct {
	n   int64
	i   int64
	a   table // lazy array: absent key k means a[k] = k; keys < i are dead
	rng *rand.Rand
}

// New returns a Shuffler over 0..n-1 using the given source of randomness.
// Preprocessing is O(1): the array is simulated lazily.
func New(n int64, rng *rand.Rand) *Shuffler {
	return &Shuffler{n: n, a: newTable(), rng: rng}
}

// Remaining returns how many elements have not been emitted yet.
func (s *Shuffler) Remaining() int64 { return s.n - s.i }

// Next returns the next element of the permutation; ok is false once all n
// elements have been emitted. Each call is O(1) (two lookup-table accesses).
func (s *Shuffler) Next() (int64, bool) {
	if s.i >= s.n {
		return 0, false
	}
	i := s.i
	j := i + s.rng.Int63n(s.n-i)
	s.i++
	// Swap a[i] and a[j] and output the value now at a[i]. Slot i is never
	// read again, so it is taken out of the table instead of written.
	ai := s.a.take(i)
	if j == i {
		return ai, true
	}
	return s.a.swap(j, ai), true
}

// Draw appends the next k elements of the permutation to dst — fewer once
// the permutation ends, none for k <= 0 — and returns the extended slice.
// The elements, and the rng draws behind them, are those of k Next calls.
func (s *Shuffler) Draw(dst []int64, k int64) []int64 {
	k = min(k, s.Remaining())
	if k <= 0 {
		return dst
	}
	dst = slices.Grow(dst, int(k))
	for ; k > 0; k-- {
		j, _ := s.Next()
		dst = append(dst, j)
	}
	return dst
}

// Permutation yields the answers at positions 0..n-1 exactly once each, in
// uniformly random order (Theorem 3.7): a Shuffler hands out the positions
// and random access resolves them. It is a single-consumer cursor.
type Permutation[T any] struct {
	shuf  *Shuffler
	at    func(j int64) (T, error)
	batch func(ctx context.Context, js []int64, workers int) ([]T, error)
}

// NewPermutation starts a random permutation of n answers. at answers one
// position and batch answers many, in order, on up to workers goroutines;
// both are only asked for positions below n.
func NewPermutation[T any](n int64, rng *rand.Rand, at func(j int64) (T, error), batch func(ctx context.Context, js []int64, workers int) ([]T, error)) *Permutation[T] {
	return &Permutation[T]{shuf: New(n, rng), at: at, batch: batch}
}

// Next returns the next answer of the permutation; ok is false once every
// answer was emitted. This is the paper's loop as written: one draw, one
// probe, one answer.
func (p *Permutation[T]) Next() (T, bool) {
	j, ok := p.shuf.Next()
	if !ok {
		var zero T
		return zero, false
	}
	t, err := p.at(j)
	return t, err == nil
}

// Remaining returns how many answers have not been emitted yet.
func (p *Permutation[T]) Remaining() int64 { return p.shuf.Remaining() }

// NextN returns the next k answers of the permutation: fewer at the end,
// none once it is exhausted or for k < 0. The positions are the draws of k
// Next calls, and their probes are one batch on up to workers goroutines,
// so the sequence does not depend on the worker count.
func (p *Permutation[T]) NextN(k int64, workers int) []T {
	out, _ := p.NextNContext(context.Background(), k, workers)
	return out
}

// NextNContext is NextN honoring cancellation between probe chunks. The k
// positions are drawn up front, so a batch cancelled while its probes run
// returns ctx.Err() with its draws consumed and its answers discarded: the
// cursor stays valid and skips them, which is what an abandoned network
// request draining a shared permutation needs.
func (p *Permutation[T]) NextNContext(ctx context.Context, k int64, workers int) ([]T, error) {
	if k < 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// k may be a "drain everything" value: Draw sizes by what is left.
	return p.batch(ctx, p.shuf.Draw(nil, k), workers)
}

// DeletionSet maintains the set {0..n-1} minus deletions, supporting uniform
// sampling without removal, deletion by value, and counting — all O(1). It is
// the structure described after Lemma 5.2: a[0..i-1] holds deleted values,
// a[i..n-1] the remaining ones, with b the inverse of a.
type DeletionSet struct {
	n int64
	i int64 // number of deleted elements
	a table // keys < i are dead: the deleted prefix is never read
	b table
}

// NewDeletionSet returns a DeletionSet over 0..n-1.
func NewDeletionSet(n int64) *DeletionSet {
	return &DeletionSet{n: n, a: newTable(), b: newTable()}
}

// Count returns the number of remaining (non-deleted) elements.
func (d *DeletionSet) Count() int64 { return d.n - d.i }

// Sample returns a uniformly random remaining element; ok is false when the
// set is empty. The element is NOT removed.
func (d *DeletionSet) Sample(rng *rand.Rand) (int64, bool) {
	if d.i >= d.n {
		return 0, false
	}
	k := d.i + rng.Int63n(d.n-d.i)
	return d.a.get(k), true
}

// Deleted reports whether value m has been deleted.
func (d *DeletionSet) Deleted(m int64) bool {
	if m < 0 || m >= d.n {
		return true
	}
	return d.b.get(m) < d.i
}

// Delete removes value m from the set. It reports whether m was present
// (not yet deleted and in range).
func (d *DeletionSet) Delete(m int64) bool {
	if m < 0 || m >= d.n {
		return false
	}
	k := d.b.get(m) // slot currently holding m
	if k < d.i {
		return false // already deleted
	}
	// Swap slots k and i; advance i. Slot i joins the deleted prefix, which
	// only b describes from now on, so a gives it up instead of storing m.
	vi := d.a.take(d.i)
	if k != d.i {
		d.a.swap(k, vi)
		d.b.swap(vi, k)
	}
	d.b.swap(m, d.i)
	d.i++
	return true
}
