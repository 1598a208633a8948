package mcucq

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/relation"
)

// recSet and recUnion are the recursive union chain the flattened walk
// replaced — Algorithm 7 by recursion through two interface calls per level,
// Compute-k by the paper's fence-free probe search with a fresh tuple per
// step — kept as the oracle the production walk is pinned against. Nothing
// here shares code with mcucq.go: the chain is rebuilt from the prepared
// indexes alone.
type recSet interface {
	Count() int64
	Access(j int64) (relation.Tuple, error)
	Test(t relation.Tuple) bool
}

type recIndex struct{ idx *access.Index }

func (s recIndex) Count() int64                           { return s.idx.Count() }
func (s recIndex) Access(j int64) (relation.Tuple, error) { return s.idx.Access(j) }
func (s recIndex) Test(t relation.Tuple) bool             { return s.idx.Contains(t) }

type recUnion struct {
	first *access.Index // A = S_ℓ
	rest  recSet        // B = S_{ℓ+1} ∪ ... ∪ S_m
	ts    []recInter
	inter int64 // |A ∩ B| via inclusion–exclusion
	count int64 // |A ∪ B|
}

type recInter struct {
	idx  *access.Index
	sign int64
}

func (u *recUnion) Count() int64 { return u.count }

func (u *recUnion) Test(t relation.Tuple) bool {
	return u.first.Contains(t) || u.rest.Test(t)
}

// Access implements Algorithm 7 (0-based).
func (u *recUnion) Access(j int64) (relation.Tuple, error) {
	if j < 0 || j >= u.count {
		return nil, access.ErrOutOfBounds
	}
	nA := u.first.Count()
	if j < nA {
		a, err := u.first.Access(j)
		if err != nil {
			return nil, err
		}
		if !u.rest.Test(a) {
			return a, nil
		}
		// a is in A ∩ B: the j-th output of the union trick is the k-th
		// element of B (1-based k = |{a_0..a_j} ∩ B|, Algorithm 8).
		var k int64
		for _, t := range u.ts {
			k += t.sign * u.countUpTo(t.idx, j)
		}
		return u.rest.Access(k - 1)
	}
	// Phase 2: remaining elements of B after |A ∩ B| were consumed.
	return u.rest.Access(j - nA + u.inter)
}

// countUpTo returns |{c ∈ T : rankA(c) ≤ j}|: the first r with
// rankA(T[r]) > j, by binary search over all of T.
func (u *recUnion) countUpTo(t *access.Index, j int64) int64 {
	return int64(sort.Search(int(t.Count()), func(r int) bool {
		c, err := t.Access(int64(r))
		if err != nil {
			return true
		}
		rank, ok := u.first.InvertedAccess(c)
		return !ok || rank > j
	}))
}

// recursiveOracle rebuilds the chain bottom-up — U_{m-1} = S_{m-1};
// U_ℓ = union(S_ℓ, U_{ℓ+1}) — from m's indexes in their job order.
func recursiveOracle(m *MCUCQ) recSet {
	indexes, n := m.Indexes(), m.NumDisjuncts()
	first := make([]int, n) // first[ℓ]: where level ℓ's intersections start
	pos := n
	for l := 0; l <= n-2; l++ {
		first[l] = pos
		pos += 1<<(n-1-l) - 1
	}
	var rest recSet = recIndex{indexes[n-1]}
	for l := n - 2; l >= 0; l-- {
		un := &recUnion{first: indexes[l], rest: rest}
		for mask := 1; mask < 1<<(n-1-l); mask++ {
			sign := int64(-1)
			if bits.OnesCount(uint(mask))%2 == 1 {
				sign = 1
			}
			t := indexes[first[l]+mask-1]
			un.ts = append(un.ts, recInter{t, sign})
			un.inter += sign * t.Count()
		}
		un.count = un.first.Count() + rest.Count() - un.inter
		rest = un
	}
	return rest
}

// refence rebuilds every rank fence of m at the given stride.
func refence(t *testing.T, m *MCUCQ, stride int64) {
	t.Helper()
	for l := range m.levels {
		for ti := range m.levels[l].ts {
			ts := &m.levels[l].ts[ti]
			ts.fence = nil
			if err := ts.buildFence(stride, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFlattenedDispatchMatchesRecursive pins MCUCQ.Access/AccessInto/Test
// (the flattened level-array walk over rank fences) against the recursive
// union chain they replaced, position by position, on 2-, 3- and 4-way
// unions with overlapping disjuncts — as built (stride 1 on these fixtures)
// and again with every fence rebuilt at stride 3, where the walk has to
// finish each search by probing.
func TestFlattenedDispatchMatchesRecursive(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed int64) (*MCUCQ, error)
	}{
		{"two-way", func(seed int64) (*MCUCQ, error) {
			return New(alignedDB(seed, 60), alignedUCQ2(), Options{})
		}},
		{"three-way", func(seed int64) (*MCUCQ, error) {
			return New(alignedDB(seed+50, 50), alignedUCQ3(), Options{})
		}},
		{"four-way", func(seed int64) (*MCUCQ, error) {
			db, u := fourWayFixture()
			return New(db, u, Options{Workers: int(seed) + 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				m, err := tc.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				top := recursiveOracle(m)
				if got, want := m.Count(), top.Count(); got != want {
					t.Fatalf("seed %d: Count %d, recursive %d", seed, got, want)
				}
				for _, stride := range []int64{1, 3} {
					refence(t, m, stride)
					into := make(relation.Tuple, len(m.Indexes()[0].Head()))
					for j := int64(-2); j < m.Count()+2; j++ {
						flat, flatErr := m.Access(j)
						rec, recErr := top.Access(j)
						if intoErr := m.AccessInto(j, into); intoErr != flatErr {
							t.Fatalf("seed %d stride %d AccessInto(%d): err %v, Access err %v", seed, stride, j, intoErr, flatErr)
						}
						if (flatErr == nil) != (recErr == nil) {
							t.Fatalf("seed %d stride %d Access(%d): flat err %v, recursive err %v", seed, stride, j, flatErr, recErr)
						}
						if flatErr != nil {
							if flatErr != access.ErrOutOfBounds || recErr != access.ErrOutOfBounds {
								t.Fatalf("seed %d Access(%d): errors %v / %v", seed, j, flatErr, recErr)
							}
							continue
						}
						if flat.Key() != rec.Key() || into.Key() != rec.Key() {
							t.Fatalf("seed %d stride %d Access(%d): flat %v, into %v, recursive %v", seed, stride, j, flat, into, rec)
						}
						if !m.Test(flat) || !top.Test(flat) {
							t.Fatalf("seed %d: answer %v fails membership", seed, flat)
						}
					}
				}
				// Non-answers must be rejected by both dispatches.
				for _, probe := range []relation.Tuple{
					{relation.Value(999), relation.Value(999), relation.Value(999)},
					{relation.Value(0), relation.Value(0), relation.Value(7)},
				} {
					if got, want := m.Test(probe), top.Test(probe); got != want {
						t.Fatalf("seed %d Test(%v): flat %v, recursive %v", seed, probe, got, want)
					}
				}
			}
		})
	}
}

// TestFlattenedDispatchSingleDisjunct covers the degenerate union (m = 1,
// no levels): the flat walk must delegate straight to the only disjunct.
func TestFlattenedDispatchSingleDisjunct(t *testing.T) {
	db := alignedDB(3, 40)
	u := alignedUCQ2()
	single := *u
	single.Disjuncts = u.Disjuncts[:1]
	m, err := New(db, &single, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() == 0 {
		t.Fatal("fixture disjunct is empty")
	}
	top := recursiveOracle(m)
	into := make(relation.Tuple, len(m.Indexes()[0].Head()))
	for j := int64(0); j < m.Count(); j++ {
		flat, err := m.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AccessInto(j, into); err != nil {
			t.Fatal(err)
		}
		rec, err := top.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if flat.Key() != rec.Key() || into.Key() != rec.Key() {
			t.Fatalf("Access(%d): %v and %v vs %v", j, flat, into, rec)
		}
	}
	if _, err := m.Access(m.Count()); err != access.ErrOutOfBounds {
		t.Fatalf("out-of-range error = %v", err)
	}
	if err := m.AccessInto(m.Count(), into); err != access.ErrOutOfBounds {
		t.Fatalf("out-of-range AccessInto error = %v", err)
	}
}

// BenchmarkUnionAccess compares the flattened walk and the recursive oracle
// on a 3-way union (run with -bench to see the delta; correctness is pinned
// by the tests above).
func BenchmarkUnionAccess(b *testing.B) {
	m, err := New(alignedDB(1, 2000), alignedUCQ3(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := m.Count()
	top := recursiveOracle(m)
	for _, flat := range []bool{true, false} {
		b.Run(fmt.Sprintf("flat=%v", flat), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := int64(i) % n
				var err error
				if flat {
					_, err = m.Access(j)
				} else {
					_, err = top.Access(j)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
