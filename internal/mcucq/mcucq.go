// Package mcucq implements random access for mutually-compatible UCQs
// (Section 5.2 of the paper, Theorem 5.5): given a union Q1 ∪ ... ∪ Qm of
// free-connex CQs such that every intersection CQ is free-connex and the
// enumeration orders are compatible, it provides
//
//   - Count in O(2^m) time after linear preprocessing (inclusion–exclusion),
//   - Access(j) in O(2^m log² |D|) (Durand–Strozecki union trick,
//     Algorithms 6–8, Lemma A.2), and
//   - a uniformly random permutation with O(log²) delay via Theorem 3.7.
//
// Compatibility is not an extra input: the construction inherits it from the
// deterministic, order-preserving pipeline (relation filters, instantiation,
// reduction and GYO are all order-preserving and structural), exactly as in
// the authors' implementation. Use Options.Verify to check it explicitly.
//
// # Concurrency contract
//
// New prepares the m disjunct indexes and the up-to-2^m intersection indexes
// on a worker pool (Options.Workers) — they are mutually independent — and
// assembles the recursive union serially, so the structure is identical to a
// serial build. A prepared MCUCQ is immutable: Count, Access, Test and
// VerifyCompatibility are safe from any number of goroutines. Permutation
// cursors are single-consumer; use Permutation.NextN to fan one consumer's
// probes across cores.
package mcucq

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/shuffle"
)

// ErrIncompatible is returned by VerifyCompatibility (and by New when
// Options.Verify is set) if some intersection's enumeration order is not a
// subsequence of its first disjunct's order.
var ErrIncompatible = errors.New("mcucq: enumeration orders are not compatible")

// SetAccess is the read-only access interface of a set in the union.
type SetAccess interface {
	Count() int64
	Access(j int64) (relation.Tuple, error)
	Test(t relation.Tuple) bool
}

// RankedSet additionally exposes the inverted access (rank) of an element.
type RankedSet interface {
	SetAccess
	InvAcc(t relation.Tuple) (int64, bool)
}

// indexSet adapts access.Index to RankedSet.
type indexSet struct{ idx *access.Index }

func (s indexSet) Count() int64                           { return s.idx.Count() }
func (s indexSet) Access(j int64) (relation.Tuple, error) { return s.idx.Access(j) }
func (s indexSet) Test(t relation.Tuple) bool             { return s.idx.Contains(t) }
func (s indexSet) InvAcc(t relation.Tuple) (int64, bool)  { return s.idx.InvertedAccess(t) }

// union provides random access to A ∪ B where A = first and B = rest
// (Algorithm 7), with Algorithm 8 replacing the (A∩B).InvAcc call by
// inclusion–exclusion over the intersection sets ts.
type union struct {
	first RankedSet // A = S_ℓ
	rest  SetAccess // B = S_{ℓ+1} ∪ ... ∪ S_m (nil at the innermost level)

	// ts[i] is T_{ℓ,I} for the i-th non-empty I ⊆ [ℓ+1, m], with its
	// inclusion–exclusion sign (+1 for odd |I|, -1 for even).
	ts    []signedSet
	inter int64 // |A ∩ B| via inclusion–exclusion
	count int64 // |A ∪ B|

	// useLargest switches Compute-k to the two-step Largest-then-InvAcc
	// formulation of the paper's appendix (for the ablation benchmark); the
	// default computes the rank directly with one binary search.
	useLargest bool
}

type signedSet struct {
	set  RankedSet
	sign int64
}

func (u *union) Count() int64 { return u.count }

func (u *union) Test(t relation.Tuple) bool {
	if u.first.Test(t) {
		return true
	}
	if u.rest != nil {
		return u.rest.Test(t)
	}
	return false
}

// Access implements Algorithm 7 (0-based).
func (u *union) Access(j int64) (relation.Tuple, error) {
	if j < 0 || j >= u.count {
		return nil, access.ErrOutOfBounds
	}
	nA := u.first.Count()
	if j < nA {
		a, err := u.first.Access(j)
		if err != nil {
			return nil, err
		}
		if u.rest == nil || !u.rest.Test(a) {
			return a, nil
		}
		// a is in A ∩ B: the j-th output of the union trick is the k-th
		// element of B (1-based k = |{a_0..a_j} ∩ B|, Algorithm 8).
		k := u.computeK(j)
		return u.rest.Access(k - 1)
	}
	// Phase 2: remaining elements of B after |A ∩ B| were consumed.
	return u.rest.Access(j - nA + u.inter)
}

// computeK returns |{a_0..a_j} ∩ B| via inclusion–exclusion over the
// intersection sets (Algorithm 8): for each T = T_{ℓ,I}, the number of
// elements of T whose rank in A is ≤ j. Compatibility makes rank(T.Access(r))
// strictly increasing in r, so one binary search per T suffices (O(log²)).
func (u *union) computeK(j int64) int64 {
	var k int64
	for _, t := range u.ts {
		k += t.sign * u.countUpTo(t.set, j)
	}
	return k
}

// countUpTo returns |{c ∈ T : rankA(c) ≤ j}|.
func (u *union) countUpTo(t RankedSet, j int64) int64 {
	n := t.Count()
	if n == 0 {
		return 0
	}
	if u.useLargest {
		return u.countUpToViaLargest(t, j, n)
	}
	// Direct form (the implementation shortcut noted in Section 6.1): find
	// the first r with rankA(T[r]) > j; that r is the count. When T is a
	// plain index, the log n probe tuples of the search share one scratch
	// buffer instead of allocating each.
	if is, ok := t.(indexSet); ok {
		scratch := make(relation.Tuple, len(is.idx.Head()))
		r := sort.Search(int(n), func(r int) bool {
			if err := is.idx.AccessInto(int64(r), scratch); err != nil {
				return true
			}
			rank, ok := u.first.InvAcc(scratch)
			if !ok {
				return true
			}
			return rank > j
		})
		return int64(r)
	}
	r := sort.Search(int(n), func(r int) bool {
		c, err := t.Access(int64(r))
		if err != nil {
			return true
		}
		rank, ok := u.first.InvAcc(c)
		if !ok {
			// T ⊆ A by construction; treat violations as "greater".
			return true
		}
		return rank > j
	})
	return int64(r)
}

// countUpToViaLargest is the literal Theorem 5.5 formulation: binary-search
// the largest element c of T that precedes position j in A's order, then
// return T.InvAcc(c) + 1.
func (u *union) countUpToViaLargest(t RankedSet, j, n int64) int64 {
	var largest relation.Tuple
	lo, hi := int64(0), n-1
	for lo <= hi {
		mid := (lo + hi) / 2
		c, err := t.Access(mid)
		if err != nil {
			break
		}
		rank, ok := u.first.InvAcc(c)
		if !ok || rank > j {
			hi = mid - 1
		} else {
			largest = c
			lo = mid + 1
		}
	}
	if largest == nil {
		return 0
	}
	r, ok := t.InvAcc(largest)
	if !ok {
		return 0
	}
	return r + 1
}

// Options tunes New.
type Options struct {
	// Reduce is passed through to every CQ preparation.
	Reduce reduce.Options
	// Verify runs VerifyCompatibility after construction (costs an extra
	// enumeration of every intersection).
	Verify bool
	// UseLargest selects the appendix formulation of Compute-k (ablation).
	UseLargest bool
	// Workers caps the goroutines preparing disjunct and intersection
	// indexes. 0 means parallel.Workers(); 1 forces serial preparation.
	Workers int
}

// MCUCQ is the prepared random-access structure of Theorem 5.5.
type MCUCQ struct {
	u     *query.UCQ
	top   SetAccess
	count int64

	// firsts[ℓ] is S_ℓ's index; inters[ℓ] the T_{ℓ,I} structures (for
	// verification and diagnostics).
	firsts []RankedSet
	levels []*union

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
// assembles the recursive union access. It fails if any disjunct or
// intersection is not free-connex.
func New(db *relation.Database, u *query.UCQ, opts Options) (*MCUCQ, error) {
	m := len(u.Disjuncts)

	// Phase 1 (serial, cheap): lay out every preparation job — the m
	// disjuncts plus, per level ℓ, one intersection CQ for each non-empty
	// I ⊆ [ℓ+1, m), in mask order.
	type prepJob struct {
		q        *query.CQ
		kind     string // "disjunct" | "intersection"
		sign     int64  // intersections only
		prepared *cqenum.CQ
	}
	disjuncts := make([]*prepJob, m)
	for i, q := range u.Disjuncts {
		disjuncts[i] = &prepJob{q: q, kind: "disjunct"}
	}
	levelJobs := make([][]*prepJob, m) // levelJobs[l], mask order
	for l := m - 2; l >= 0; l-- {
		others := make([]int, 0, m-l-1)
		for i := l + 1; i < m; i++ {
			others = append(others, i)
		}
		for mask := 1; mask < (1 << len(others)); mask++ {
			idx := []int{l}
			for b, i := range others {
				if mask&(1<<b) != 0 {
					idx = append(idx, i)
				}
			}
			qi, err := u.Intersection(intersectionName(u, idx), idx)
			if err != nil {
				return nil, err
			}
			// |I| = len(idx)-1 members beyond ℓ; the inclusion–exclusion
			// sign is (-1)^{|I|+1}: positive for odd |I|.
			sign := int64(-1)
			if (len(idx)-1)%2 == 1 {
				sign = 1
			}
			levelJobs[l] = append(levelJobs[l], &prepJob{q: qi, kind: "intersection", sign: sign})
		}
	}
	jobs := append([]*prepJob{}, disjuncts...)
	for _, lj := range levelJobs {
		jobs = append(jobs, lj...)
	}

	// Phase 2 (parallel): prepare all indexes. Each job writes only its own
	// slot; cqenum.Prepare only reads the shared database. Workers also caps
	// each index's internal build fan-out, so Workers=1 is fully serial.
	build := access.BuildOptions{Workers: opts.Workers}
	if err := parallel.ForEach(len(jobs), opts.Workers, func(i int) error {
		c, err := cqenum.PrepareWithOptions(db, jobs[i].q, opts.Reduce, build)
		if err != nil {
			return fmt.Errorf("mcucq: %s %s: %w", jobs[i].kind, jobs[i].q.Name, err)
		}
		jobs[i].prepared = c
		return nil
	}); err != nil {
		return nil, err
	}

	firsts := make([]RankedSet, m)
	for i, j := range disjuncts {
		firsts[i] = indexSet{j.prepared.Index}
	}
	out := &MCUCQ{u: u, firsts: firsts}
	for _, j := range jobs {
		out.indexes = append(out.indexes, j.prepared.Index)
	}

	// Phase 3 (serial): build bottom-up exactly as the serial construction —
	// U_{m-1} = S_{m-1}; U_ℓ = union(S_ℓ, U_{ℓ+1}).
	levelSets := make([][]signedSet, m)
	for l, lj := range levelJobs {
		for _, j := range lj {
			levelSets[l] = append(levelSets[l], signedSet{set: indexSet{j.prepared.Index}, sign: j.sign})
		}
	}
	out.assemble(levelSets, opts.UseLargest)

	if opts.Verify {
		if err := out.VerifyCompatibility(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func restCount(s SetAccess) int64 { return s.Count() }

// assemble builds the recursive union bottom-up — U_{m-1} = S_{m-1};
// U_ℓ = union(S_ℓ, U_{ℓ+1}) — from the per-level intersection sets. Shared
// by New and Restore so the assembled structure cannot drift between the
// build and the snapshot-restore path.
func (m *MCUCQ) assemble(levelSets [][]signedSet, useLargest bool) {
	n := len(m.firsts)
	var rest SetAccess = m.firsts[n-1]
	for l := n - 2; l >= 0; l-- {
		un := &union{first: m.firsts[l], rest: rest, useLargest: useLargest}
		for _, ss := range levelSets[l] {
			un.ts = append(un.ts, ss)
			un.inter += ss.sign * ss.set.Count()
		}
		un.count = un.first.Count() + restCount(rest) - un.inter
		m.levels = append(m.levels, un)
		rest = un
	}
	m.top = rest
	m.count = restCount(rest)
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
// of a snapshot, in the job order Indexes() reported at save time. The
// level layout and inclusion–exclusion signs are recomputed from m alone —
// they are a pure function of the disjunct count — and the per-level counts
// re-derive from the restored indexes' counts, so nothing else needs to be
// persisted.
func Restore(u *query.UCQ, indexes []*access.Index) (*MCUCQ, error) {
	m := len(u.Disjuncts)
	if m == 0 {
		return nil, errors.New("mcucq: restore of an empty union")
	}
	if want := RestoredIndexCount(m); len(indexes) != want {
		return nil, fmt.Errorf("mcucq: restore of %d-disjunct union needs %d indexes, got %d", m, want, len(indexes))
	}
	firsts := make([]RankedSet, m)
	for i := 0; i < m; i++ {
		firsts[i] = indexSet{indexes[i]}
	}
	out := &MCUCQ{u: u, firsts: firsts, indexes: indexes}
	levelSets := make([][]signedSet, m)
	pos := m
	for l := 0; l <= m-2; l++ {
		count := (1 << (m - 1 - l)) - 1
		for mask := 1; mask <= count; mask++ {
			// |I| = popcount(mask) members beyond ℓ; sign (-1)^{|I|+1}.
			sign := int64(-1)
			if bits.OnesCount(uint(mask))%2 == 1 {
				sign = 1
			}
			levelSets[l] = append(levelSets[l], signedSet{set: indexSet{indexes[pos]}, sign: sign})
			pos++
		}
	}
	out.assemble(levelSets, false)
	return out, nil
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

// Count returns |Q(D)| for the union, available right after preprocessing.
func (m *MCUCQ) Count() int64 { return m.count }

// Access returns the j-th answer of the union's enumeration order.
//
// The dispatch is flattened: instead of recursing down the union chain
// through two interface calls per level (rest.Access, rest.Test), the loop
// walks the level array directly — Algorithm 7's tail recursion is just a
// rewrite of j — and the membership probe against the rest of the union is
// a linear OR-scan over the remaining disjunct indexes. The recursive form
// survives on the union type itself; TestFlattenedDispatchMatchesRecursive
// pins the two against each other.
func (m *MCUCQ) Access(j int64) (relation.Tuple, error) {
	n := len(m.firsts)
	for l := 0; ; l++ {
		if l == n-1 {
			// Innermost level: the last disjunct serves the probe directly.
			return m.firsts[l].Access(j)
		}
		// levels is built bottom-up, so the union whose first disjunct is
		// S_l sits at levels[n-2-l].
		u := m.levels[n-2-l]
		if j < 0 || j >= u.count {
			return nil, access.ErrOutOfBounds
		}
		nA := u.first.Count()
		if j < nA {
			a, err := u.first.Access(j)
			if err != nil {
				return nil, err
			}
			if !m.testFrom(l+1, a) {
				return a, nil
			}
			// a ∈ A ∩ B: the j-th output is B's (k-1)-th element.
			j = u.computeK(j) - 1
			continue
		}
		// Phase 2: remaining elements of B after |A ∩ B| were consumed.
		j = j - nA + u.inter
	}
}

// AccessBatchContext returns Access(j) for every j in js, in order, on up to
// `workers` goroutines (workers <= 0 means parallel.Workers()), honoring
// cancellation between probe chunks. The batch is validated first: an
// out-of-range position fails the call with access.ErrOutOfBounds before
// any probe. Like the index's own AccessBatch, a batch below
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
	if err := parallel.ForEachChunkCtx(ctx, len(js), workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			t, err := m.Access(js[i])
			if err != nil {
				return err
			}
			out[i] = t
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Test reports whether t is an answer of the union: a flat OR-scan over the
// disjunct indexes (the recursive chain's Test unrolls to exactly this).
func (m *MCUCQ) Test(t relation.Tuple) bool { return m.testFrom(0, t) }

// testFrom reports whether t is an answer of S_l ∪ ... ∪ S_{m-1}.
func (m *MCUCQ) testFrom(l int, t relation.Tuple) bool {
	for ; l < len(m.firsts); l++ {
		if m.firsts[l].Test(t) {
			return true
		}
	}
	return false
}

// VerifyCompatibility checks, for every level ℓ and every intersection set
// T_{ℓ,I}, that T's enumeration order is a subsequence of S_ℓ's order (every
// element of T is in S_ℓ with strictly increasing ranks). It costs a full
// enumeration of every intersection.
func (m *MCUCQ) VerifyCompatibility() error {
	for li, un := range m.levels {
		for ti, t := range un.ts {
			prev := int64(-1)
			for r := int64(0); r < t.set.Count(); r++ {
				c, err := t.set.Access(r)
				if err != nil {
					return err
				}
				rank, ok := un.first.InvAcc(c)
				if !ok {
					return fmt.Errorf("%w: level %d T#%d element %v not in its first disjunct",
						ErrIncompatible, li, ti, c)
				}
				if rank <= prev {
					return fmt.Errorf("%w: level %d T#%d rank regression at %d (%d ≤ %d)",
						ErrIncompatible, li, ti, r, rank, prev)
				}
				prev = rank
			}
		}
	}
	return nil
}

// Permutation enumerates the union's answers in uniformly random order with
// O(2^m log²) delay (REnum(mcUCQ)).
type Permutation struct {
	m    *MCUCQ
	shuf *shuffle.Shuffler
}

// Permute starts a fresh uniformly random permutation.
func (m *MCUCQ) Permute(rng *rand.Rand) *Permutation {
	return &Permutation{m: m, shuf: shuffle.New(m.count, rng)}
}

// Next returns the next answer; ok is false after all answers were emitted.
func (p *Permutation) Next() (relation.Tuple, bool) {
	j, ok := p.shuf.Next()
	if !ok {
		return nil, false
	}
	t, err := p.m.Access(j)
	if err != nil {
		return nil, false
	}
	return t, true
}

// Remaining returns the number of answers not yet emitted.
func (p *Permutation) Remaining() int64 { return p.shuf.Remaining() }

// NextN returns the next k answers of the permutation (fewer at the end).
// Random positions are drawn serially from the shuffler — the same draws as
// k calls to Next — and the union Access probes fan out over up to `workers`
// goroutines (workers <= 0 means parallel.Workers()), which amortizes the
// O(2^m log²) per-probe cost across cores.
func (p *Permutation) NextN(k int64, workers int) []relation.Tuple {
	out, _ := p.NextNContext(context.Background(), k, workers)
	return out
}

// NextNContext is NextN honoring cancellation between probe chunks. The
// positions are drawn serially up front (identical rng consumption to
// NextN); cancellation mid-probe returns ctx.Err() with the drawn positions
// consumed and their answers discarded — the permutation stays valid and
// simply skips the cancelled batch.
func (p *Permutation) NextNContext(ctx context.Context, k int64, workers int) ([]relation.Tuple, error) {
	if k < 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// k may be a "drain everything" value: Draw sizes by what is left. The
	// shuffler never emits an index at or above Count(), so the batch fails
	// only through cancellation.
	return p.m.AccessBatchContext(ctx, p.shuf.Draw(nil, k), workers)
}
