// Package mcucq implements random access for mutually-compatible UCQs
// (Section 5.2 of the paper, Theorem 5.5): given a union Q1 ∪ ... ∪ Qm of
// free-connex CQs such that every intersection CQ is free-connex and the
// enumeration orders are compatible, it provides
//
//   - Count in O(2^m) time after linear preprocessing (inclusion–exclusion),
//   - Access(j) by the Durand–Strozecki union trick (Algorithms 6–8,
//     Lemma A.2) in O(2^m log |D|) whenever no intersection has more answers
//     than its index has tuples, and never worse than the paper's
//     O(2^m log² |D|), and
//   - a uniformly random permutation with that delay: Theorem 3.7's
//     shuffle.Permutation over Access, the cursor every backend shares.
//
// # Rank fences
//
// Algorithm 8 needs |{c ∈ T : rank_A(c) ≤ j}| for an intersection T of a
// level whose first disjunct is A. Compatibility makes rank_A(T[r]) strictly
// increasing in r, and the paper finds the count by a binary search whose
// every step is a random access into T and an inverted access into A — the
// log² of Theorem 5.5. That sequence is fixed, so preprocessing writes it
// down: fence[i] = rank_A(T[i·s]) for the stride s = ⌈|T| / tuples(T)⌉,
// where tuples(T) is the number of tuples T's own index stores. The array is
// never longer than the index it summarises, so preprocessing stays linear.
// A probe binary-searches the fences — a plain []int64 — and then runs the
// paper's search inside one stride window only: ⌈log₂ s⌉ probe steps, none
// at all when s = 1, which is every intersection with |T| ≤ tuples(T).
// Fences are derived data: a snapshot does not store them and Restore
// recomputes them in the same walk that checks compatibility (below).
// The fenced search is Compute-k's one formulation; the appendix's
// Largest-then-InvAcc form is kept only as a test oracle.
//
// # Compatibility
//
// Theorem 5.5 holds only when every intersection T enumerates as a
// subsequence of its first disjunct A. The construction does not guarantee
// it: a union whose disjuncts root their join trees differently — twin
// relations beside a disconnected atom, or an intersection that joins a
// relation with itself — can build an intersection out of A's order, and
// FuzzQuerySpace has found such unions.
// So the fence build checks it, totally, at build and at Restore alike: it
// ranks every element of T once (the fence keeps every stride-th rank) and
// refuses the union with ErrIncompatible at the first element missing from A
// or out of order. That costs |T| inverted accesses per intersection, which
// exceeds linear preprocessing only for a fence of stride above 1, where T
// has more answers than its index has tuples.
//
// # Concurrency contract
//
// New prepares the m disjunct indexes and the up-to-2^m intersection indexes
// on a worker pool (Options.Workers) — they are mutually independent — and
// assembles the levels serially, each fence filled on the same worker
// budget, so the structure is identical to a serial build. A prepared MCUCQ
// is immutable: Count, Access, AccessInto and Test are safe from any number
// of goroutines. Permutation cursors are single-consumer; NextN fans one
// consumer's probes across cores.
package mcucq

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/shuffle"
)

// ErrIncompatible is returned by New and Restore when some intersection's
// enumeration order is not a subsequence of its first disjunct's order.
var ErrIncompatible = errors.New("mcucq: enumeration orders are not compatible")

// disjunct is what the level walk asks of a disjunct's index. Production
// stores *access.Index; it is an interface so that a test can put a spy
// between the walk and the index (TestSmallUnionBatchStaysOnCaller).
type disjunct interface {
	AccessInto(j int64, answer relation.Tuple) error
	Contains(answer relation.Tuple) bool
}

// level is one step of Algorithm 7: random access to A ∪ B where A = S_ℓ is
// the level's first disjunct and B = S_{ℓ+1} ∪ ... ∪ S_{m-1} the level below,
// with Algorithm 8 replacing the (A∩B).InvAcc call by inclusion–exclusion
// over the intersection sets ts.
type level struct {
	nA    int64      // |A|
	ts    []interSet // T_{ℓ,I} for every non-empty I ⊆ [ℓ+1, m), mask order
	inter int64      // |A ∩ B| via inclusion–exclusion
	count int64      // |A ∪ B|
}

// interSet is one intersection set T = T_{ℓ,I} with its inclusion–exclusion
// sign (+1 for odd |I|, -1 for even) and its rank fence in a = S_ℓ.
type interSet struct {
	t, a *access.Index
	sign int64

	// fence[i] = rank_a(t[i·stride]) for every i·stride < |t|: strictly
	// increasing. Empty exactly when t is.
	fence  []int64
	stride int64
}

// computeK returns |{a_0..a_j} ∩ B| via inclusion–exclusion over the
// intersection sets (Algorithm 8): for each T = T_{ℓ,I}, the number of
// elements of T whose rank in A is ≤ j.
func (lv *level) computeK(j int64) int64 {
	var k int64
	for i := range lv.ts {
		k += lv.ts[i].sign * lv.ts[i].countUpTo(j)
	}
	return k
}

// countUpTo returns |{c ∈ T : rank_A(c) ≤ j}|: the fences pin it to one
// stride window, the probe search of firstAbove finishes inside it.
func (t *interSet) countUpTo(j int64) int64 {
	lo, hi := t.window(j)
	return t.firstAbove(j, lo, hi)
}

// window returns the positions [lo, hi) of T the fences leave undecided for
// j: everything below lo ranks ≤ j in A, everything from hi on ranks above
// it. It holds at most stride - 1 positions — none at stride 1.
func (t *interSet) window(j int64) (lo, hi int64) {
	// f fences rank ≤ j (callers keep j below |A|, so j+1 cannot wrap).
	f, _ := slices.BinarySearch(t.fence, j+1)
	if f == 0 {
		return 0, 0
	}
	// T[(f-1)·s] ranks ≤ j and T[f·s], if there is one, above it.
	lo = int64(f-1) * t.stride
	return lo + 1, lo + min(t.stride, t.t.Count()-lo)
}

// firstAbove returns the first r in [lo, hi) with rank_A(T[r]) > j, or hi if
// there is none — the direct form of Compute-k (the implementation shortcut
// noted in Section 6.1): ranks increase strictly with r, so when everything
// below lo ranks ≤ j that r is the count. Each step is a random access into
// T and an inverted access into A; firstAbove(j, 0, |T|) is the paper's whole
// search, and what a fence leaves of it is one stride window.
func (t *interSet) firstAbove(j, lo, hi int64) int64 {
	if lo >= hi {
		return lo
	}
	var stack [8]relation.Value
	scratch := relation.Tuple(stack[:])
	if arity := len(t.t.Head()); arity <= len(stack) {
		scratch = scratch[:arity]
	} else {
		scratch = make(relation.Tuple, arity)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		// T ⊆ A by construction; an element A does not hold counts as
		// "greater", as an element out of order would.
		if rank := t.rankOf(mid, scratch); rank < 0 || rank > j {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// rankOf returns rank_A(T[r]) using scratch, a row of T's arity — one random
// access into T and one inverted access into A — or -1 when A does not hold
// the element (or r is not a position of T).
func (t *interSet) rankOf(r int64, scratch relation.Tuple) int64 {
	if t.t.AccessInto(r, scratch) != nil {
		return -1
	}
	rank, ok := t.a.InvertedAccess(scratch)
	if !ok {
		return -1
	}
	return rank
}

// checkRank is the compatibility condition on one element: T[r], of rank
// `rank` in A, must be in A and rank strictly above `prev`, the rank of the
// element checked before it.
func (t *interSet) checkRank(r, rank, prev int64) error {
	if rank < 0 {
		c, _ := t.t.Access(r) // for the message only
		return fmt.Errorf("%w: element %d %v not in its first disjunct", ErrIncompatible, r, c)
	}
	if rank <= prev {
		return fmt.Errorf("%w: rank regression at element %d (%d ≤ %d)", ErrIncompatible, r, rank, prev)
	}
	return nil
}

// fenceStride returns the smallest stride at which a fence over n > 0
// elements has at most max(budget, 1) entries.
func fenceStride(n, budget int64) int64 {
	budget = max(budget, 1)
	if n%budget != 0 {
		return n/budget + 1
	}
	return n / budget
}

// buildFence fills t's rank fence at the given stride and is the union's one
// compatibility check, at build and at restore alike: it ranks every element
// of T in A once, on up to `workers` goroutines, keeps fence[i] =
// rank_A(T[i·stride]), and refuses with checkRank's ErrIncompatible at the
// first element missing from A or out of order. Each chunk of T also ranks
// the element before it, for its first comparison, and the smallest failing
// position wins, so the element an error names does not depend on the worker
// count. Production passes fenceStride(|T|, tuples(T)), which keeps the fence
// no longer than the index it summarises.
func (t *interSet) buildFence(stride int64, workers int) error {
	n := t.t.Count()
	if n == 0 {
		return nil
	}
	t.stride = stride
	t.fence = make([]int64, (n-1)/stride+1)
	if n < access.BatchSerialThreshold {
		workers = 1
	}
	arity := len(t.t.Head())
	var (
		mu    sync.Mutex
		first = n // the smallest failing position so far
		bad   error
	)
	if err := parallel.ForEachChunk(int(n), workers, func(lo, hi int) error {
		scratch := make(relation.Tuple, arity)
		prev := int64(-1)
		if lo > 0 {
			prev = t.rankOf(int64(lo-1), scratch)
		}
		for r := int64(lo); r < int64(hi); r++ {
			rank := t.rankOf(r, scratch)
			if err := t.checkRank(r, rank, prev); err != nil {
				mu.Lock()
				if r < first {
					first, bad = r, err
				}
				mu.Unlock()
				return nil
			}
			if r%stride == 0 {
				t.fence[r/stride] = rank
			}
			prev = rank
		}
		return nil
	}); err != nil {
		return err // a worker panicked
	}
	return bad
}

// Options tunes New.
type Options struct {
	// Reduce is passed through to every CQ preparation.
	Reduce reduce.Options
	// Workers caps the goroutines preparing disjunct and intersection
	// indexes and filling the fences. 0 means parallel.Workers(); 1 forces
	// a serial build.
	Workers int
}

// MCUCQ is the prepared random-access structure of Theorem 5.5.
type MCUCQ struct {
	u     *query.UCQ
	count int64

	// firsts[ℓ] is S_ℓ's index and levels[ℓ] the union S_ℓ ∪ ... ∪ S_{m-1}
	// it heads; the last disjunct heads no level.
	firsts []disjunct
	levels []level

	// indexes holds every prepared index in deterministic job order (the m
	// disjuncts, then each level's intersections in mask order) — the
	// serialization order Restore consumes.
	indexes []*access.Index
}

// Indexes returns the prepared disjunct and intersection indexes in the
// deterministic job order New built them: the m disjunct indexes first,
// then level 0's intersections in mask order, then level 1's, and so on.
// This is exactly the order Restore expects back.
func (m *MCUCQ) Indexes() []*access.Index { return m.indexes }

// NumDisjuncts returns m, the number of disjuncts of the union.
func (m *MCUCQ) NumDisjuncts() int { return len(m.firsts) }

// New prepares every disjunct and every required intersection CQ (all in
// linear time each, mutually independent and hence run on a worker pool) and
// assembles the levels with their rank fences. It fails if any disjunct or
// intersection is not free-connex, and with ErrIncompatible if the fence
// build finds an intersection out of its first disjunct's order.
func New(db *relation.Database, u *query.UCQ, opts Options) (*MCUCQ, error) {
	m := len(u.Disjuncts)

	// Phase 1 (serial, cheap): lay out every preparation job — the m
	// disjuncts, then per level ℓ one intersection CQ for each non-empty
	// I ⊆ [ℓ+1, m), in mask order: the order of Indexes().
	jobs := make([]*query.CQ, 0, RestoredIndexCount(m))
	jobs = append(jobs, u.Disjuncts...)
	for l := 0; l <= m-2; l++ {
		for mask := 1; mask < 1<<(m-1-l); mask++ {
			idx := members(l, mask)
			qi, err := u.Intersection(intersectionName(u, idx), idx)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, qi)
		}
	}

	// Phase 2 (parallel): prepare all indexes. Each job writes only its own
	// slot; cqenum.Prepare only reads the shared database. Workers also caps
	// each index's internal build fan-out, so Workers=1 is fully serial.
	indexes := make([]*access.Index, len(jobs))
	build := access.BuildOptions{Workers: opts.Workers}
	if err := parallel.ForEach(len(jobs), opts.Workers, func(i int) error {
		c, err := cqenum.PrepareWithOptions(db, jobs[i], opts.Reduce, build)
		if err != nil {
			kind := "intersection"
			if i < m {
				kind = "disjunct"
			}
			return fmt.Errorf("mcucq: %s %s: %w", kind, jobs[i].Name, err)
		}
		indexes[i] = c.Index
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 3: the levels and their fences, which check compatibility.
	return assemble(u, indexes, opts.Workers)
}

// members returns the disjuncts of T_{ℓ,I}: ℓ itself, then the members of
// I ⊆ [ℓ+1, m) that mask selects (bit b stands for disjunct ℓ+1+b).
func members(l, mask int) []int {
	idx := []int{l}
	for b := 0; mask>>b != 0; b++ {
		if mask&(1<<b) != 0 {
			idx = append(idx, l+1+b)
		}
	}
	return idx
}

func intersectionName(u *query.UCQ, idx []int) string {
	name := u.Name + "∩["
	for i, d := range idx {
		if i > 0 {
			name += ","
		}
		name += u.Disjuncts[d].Name
	}
	return name + "]"
}

// assemble builds the levels — U_{m-1} = S_{m-1}; U_ℓ = S_ℓ ∪ U_{ℓ+1} — over
// indexes in the job order of Indexes(), and fills (and checks) every
// intersection's rank fence on up to `workers` goroutines. The level layout
// and the inclusion–exclusion signs are a pure function of the disjunct
// count, the counts re-derive from the indexes' counts and the fences from
// probing them, so a snapshot needs to hold nothing but the indexes. Shared
// by New and Restore so the assembled structure, and the compatibility check
// with it, cannot drift between the build and the snapshot-restore path.
func assemble(u *query.UCQ, indexes []*access.Index, workers int) (*MCUCQ, error) {
	n := len(u.Disjuncts)
	if n == 0 {
		return nil, errors.New("mcucq: empty union")
	}
	m := &MCUCQ{u: u, firsts: make([]disjunct, n), levels: make([]level, n-1), indexes: indexes}
	for i := range m.firsts {
		m.firsts[i] = indexes[i]
	}
	pos := n
	for l := range m.levels {
		lv := &m.levels[l]
		lv.nA = indexes[l].Count()
		for mask := 1; mask < 1<<(n-1-l); mask++ {
			// |I| = popcount(mask) members beyond ℓ; sign (-1)^{|I|+1}.
			sign := int64(-1)
			if bits.OnesCount(uint(mask))%2 == 1 {
				sign = 1
			}
			t := interSet{t: indexes[pos], a: indexes[l], sign: sign}
			if err := t.buildFence(fenceStride(t.t.Count(), t.t.Tuples()), workers); err != nil {
				return nil, m.at(err, l, mask-1)
			}
			lv.ts = append(lv.ts, t)
			lv.inter += sign * t.t.Count()
			pos++
		}
	}
	m.count = indexes[n-1].Count()
	for l := n - 2; l >= 0; l-- {
		lv := &m.levels[l]
		lv.count = lv.nA + m.count - lv.inter
		m.count = lv.count
	}
	return m, nil
}

// at adds to err the intersection set it is about: its level, its place in
// the level's mask order and the disjuncts it intersects.
func (m *MCUCQ) at(err error, l, ti int) error {
	return fmt.Errorf("%w (level %d T#%d, %s)", err, l, ti, intersectionName(m.u, members(l, ti+1)))
}

// RestoredIndexCount returns how many indexes a snapshot of an m-disjunct
// union holds: the m disjuncts plus every level's 2^(m-1-ℓ) - 1
// intersections.
func RestoredIndexCount(m int) int {
	n := m
	for l := 0; l <= m-2; l++ {
		n += (1 << (m - 1 - l)) - 1
	}
	return n
}

// Restore reassembles the Theorem 5.5 structure from indexes restored out
// of a snapshot, in the job order Indexes() reported at save time. Nothing
// else is persisted: assemble re-derives the layout, the counts and the rank
// fences — the last by ranking every element of every intersection once, on
// up to `workers` goroutines (0 means parallel.Workers()), which is the part
// of a union entry's restore that is not O(open + validate). Indexes that do
// not belong together fail that walk with ErrIncompatible, as they fail New.
func Restore(u *query.UCQ, indexes []*access.Index, workers int) (*MCUCQ, error) {
	m := len(u.Disjuncts)
	if want := RestoredIndexCount(m); len(indexes) != want {
		return nil, fmt.Errorf("mcucq: restore of %d-disjunct union needs %d indexes, got %d", m, want, len(indexes))
	}
	return assemble(u, indexes, workers)
}

// Count returns |Q(D)| for the union, available right after preprocessing.
func (m *MCUCQ) Count() int64 { return m.count }

// Access returns the j-th answer of the union's enumeration order: AccessInto
// into a fresh tuple.
func (m *MCUCQ) Access(j int64) (relation.Tuple, error) {
	answer := make(relation.Tuple, len(m.indexes[0].Head()))
	if err := m.AccessInto(j, answer); err != nil {
		return nil, err
	}
	return answer, nil
}

// AccessInto is Algorithm 7 (0-based) writing the j-th answer into a
// caller-provided buffer of the union's arity, without allocating.
//
// The walk is flat: Algorithm 7's tail recursion is just a rewrite of j, so
// the loop steps down the level array, each first disjunct's probe lands in
// answer directly, and the membership test against the rest of the union is
// a linear OR-scan over the remaining disjunct indexes. The recursive form
// is the oracle of TestFlattenedDispatchMatchesRecursive.
func (m *MCUCQ) AccessInto(j int64, answer relation.Tuple) error {
	for l := range m.levels {
		lv := &m.levels[l]
		if j < 0 || j >= lv.count {
			return access.ErrOutOfBounds
		}
		if j >= lv.nA {
			// Phase 2: what is left of B after |A ∩ B| were consumed.
			j = j - lv.nA + lv.inter
			continue
		}
		if err := m.firsts[l].AccessInto(j, answer); err != nil {
			return err
		}
		if !m.testFrom(l+1, answer) {
			return nil
		}
		// a_j ∈ A ∩ B: the j-th output is B's (k-1)-th element.
		j = lv.computeK(j) - 1
	}
	// Innermost level: the last disjunct serves the probe directly.
	return m.firsts[len(m.levels)].AccessInto(j, answer)
}

// AccessBatchContext returns Access(j) for every j in js, in order, on up to
// `workers` goroutines (workers <= 0 means parallel.Workers()), honoring
// cancellation between probe chunks. The batch is validated first: an
// out-of-range position fails the call with access.ErrOutOfBounds before
// any probe. Like the index's own AccessBatch, the answers of one chunk
// share a single backing array, and a batch below
// access.BatchSerialThreshold runs on the calling goroutine whatever the
// worker count — a 64-answer page must not pay for a fork and a join.
func (m *MCUCQ) AccessBatchContext(ctx context.Context, js []int64, workers int) ([]relation.Tuple, error) {
	for _, j := range js {
		if j < 0 || j >= m.count {
			return nil, access.ErrOutOfBounds
		}
	}
	if len(js) < access.BatchSerialThreshold {
		workers = 1
	}
	out := make([]relation.Tuple, len(js))
	arity := len(m.indexes[0].Head())
	if err := parallel.ForEachChunkCtx(ctx, len(js), workers, func(lo, hi int) error {
		backing := make([]relation.Value, (hi-lo)*arity)
		for i := lo; i < hi; i++ {
			out[i] = backing[(i-lo)*arity : (i-lo+1)*arity : (i-lo+1)*arity]
			if err := m.AccessInto(js[i], out[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Test reports whether t is an answer of the union: a flat OR-scan over the
// disjunct indexes.
func (m *MCUCQ) Test(t relation.Tuple) bool { return m.testFrom(0, t) }

// testFrom reports whether t is an answer of S_l ∪ ... ∪ S_{m-1}.
func (m *MCUCQ) testFrom(l int, t relation.Tuple) bool {
	for ; l < len(m.firsts); l++ {
		if m.firsts[l].Contains(t) {
			return true
		}
	}
	return false
}

// Permutation enumerates the union's answers in uniformly random order
// (REnum(mcUCQ)): Theorem 3.7's permutation over the union's Access.
type Permutation = shuffle.Permutation[relation.Tuple]

// Permute starts a fresh uniformly random permutation.
func (m *MCUCQ) Permute(rng *rand.Rand) *Permutation {
	return shuffle.NewPermutation(m.count, rng, m.Access, m.AccessBatchContext)
}
