package mcucq

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestFenceMatchesProbeSearch pins the fence search against the paper's
// fence-free probe search: for strides 1, 2, 7 and |T| + 1 (one fence, the
// whole rest of T its window), countUpTo equals firstAbove over all of T for
// every j from -1 to |A| on the 2-, 3- and 4-way fixtures. It also pins what
// a fence saves: the window left to the probe search never holds more than
// stride - 1 positions, so finishing it takes at most ⌈log₂ stride⌉ probe
// pairs — and none at stride 1, where the set's first disjunct is taken
// away for the duration, so that a single probe would be a nil dereference.
func TestFenceMatchesProbeSearch(t *testing.T) {
	four, u4 := fourWayFixture()
	for _, tc := range []struct {
		name string
		db   *relation.Database
		u    *query.UCQ
	}{
		{"two-way", alignedDB(2, 60), alignedUCQ2()},
		{"three-way", alignedDB(52, 50), alignedUCQ3()},
		{"four-way", four, u4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.db, tc.u, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sets := 0
			for l := range m.levels {
				lv := &m.levels[l]
				for ti := range lv.ts {
					ts := &lv.ts[ti]
					n := ts.t.Count()
					if n == 0 {
						if ts.fence != nil || ts.countUpTo(lv.nA) != 0 {
							t.Fatalf("level %d T#%d is empty but has a fence or a count", l, ti)
						}
						continue
					}
					sets++
					if ts.stride != 1 || int64(len(ts.fence)) != n {
						t.Fatalf("level %d T#%d: |T| = %d ≤ %d tuples built stride %d with %d fences",
							l, ti, n, ts.t.Tuples(), ts.stride, len(ts.fence))
					}
					want := make([]int64, lv.nA+2) // want[j+1], from the fence-free search
					for j := int64(-1); j <= lv.nA; j++ {
						want[j+1] = ts.firstAbove(j, 0, n)
					}
					for _, stride := range []int64{1, 2, 7, n + 1} {
						ts.fence = nil
						if err := ts.buildFence(stride, 2); err != nil {
							t.Fatal(err)
						}
						if got, want := int64(len(ts.fence)), (n-1)/stride+1; got != want {
							t.Fatalf("level %d T#%d stride %d: %d fences over %d elements, want %d", l, ti, stride, got, n, want)
						}
						a := ts.a
						if stride == 1 {
							ts.a = nil
						}
						for j := int64(-1); j <= lv.nA; j++ {
							lo, hi := ts.window(j)
							if w := hi - lo; w < 0 || w > stride-1 || hi > n {
								t.Fatalf("level %d T#%d stride %d: window(%d) = [%d, %d) in %d elements", l, ti, stride, j, lo, hi, n)
							}
							if got := ts.countUpTo(j); got != want[j+1] {
								t.Fatalf("level %d T#%d stride %d: countUpTo(%d) = %d, probe search %d", l, ti, stride, j, got, want[j+1])
							}
						}
						ts.a = a
					}
				}
			}
			if sets == 0 {
				t.Fatal("fixture has no non-empty intersection: nothing was compared")
			}
		})
	}
}

// TestFenceStrideKeepsFenceLinear: the production stride is the smallest
// one whose fence fits the budget, whatever the two sizes are.
func TestFenceStrideKeepsFenceLinear(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 64, 1000, 1 << 40, 1<<63 - 1} {
		for _, budget := range []int64{0, 1, 2, 7, 63, 64, 65, 1000, 1 << 41} {
			s := fenceStride(n, budget)
			if s < 1 {
				t.Fatalf("fenceStride(%d, %d) = %d", n, budget, s)
			}
			if fences := (n-1)/s + 1; fences > max(budget, 1) {
				t.Fatalf("fenceStride(%d, %d) = %d leaves %d fences", n, budget, s, fences)
			}
			if s > 1 && (n-1)/(s-1)+1 <= max(budget, 1) {
				t.Fatalf("fenceStride(%d, %d) = %d, but stride %d already fits", n, budget, s, s-1)
			}
		}
	}
}

// incompatibleFixture is a union the construction cannot serve. q1 joins A
// and B and enumerates in A's order, x ascending; q2 is the single atom C,
// which holds the same six answers with x in cOrder. Their intersection is
// rooted at C (the one atom covering every variable), so taken after q1 it
// enumerates in cOrder against a first disjunct that does not — and taken
// after q2 it is in its first disjunct's order whatever cOrder is.
func incompatibleFixture(cOrder ...int) (db *relation.Database, q1, q2 *query.CQ) {
	db = relation.NewDatabase()
	a := db.MustCreate("A", "x", "y")
	b := db.MustCreate("B", "y", "z")
	c := db.MustCreate("C", "x", "y", "z")
	b.MustInsert(0, 7)
	b.MustInsert(1, 8)
	for i, x := range cOrder {
		a.MustInsert(relation.Value(i), relation.Value(i%2))
		c.MustInsert(relation.Value(x), relation.Value(x%2), relation.Value(7+x%2))
	}
	q1 = query.MustCQ("q1", []string{"x", "y", "z"},
		query.NewAtom("A", query.V("x"), query.V("y")),
		query.NewAtom("B", query.V("y"), query.V("z")))
	q2 = query.MustCQ("q2", []string{"x", "y", "z"},
		query.NewAtom("C", query.V("x"), query.V("y"), query.V("z")))
	return db, q1, q2
}

// TestIncompatibleUnionRefused: the fence build ranks every element of T,
// so New refuses a union whose orders are not compatible — it used to build
// it and serve wrong answers. The same disjuncts the other way round are
// compatible.
func TestIncompatibleUnionRefused(t *testing.T) {
	db, q1, q2 := incompatibleFixture(5, 4, 3, 2, 1, 0)
	for _, workers := range []int{1, 4} {
		_, err := New(db, query.MustUCQ("u", q1, q2), Options{Workers: workers})
		if !errors.Is(err, ErrIncompatible) {
			t.Fatalf("workers %d: New on an incompatible union = %v, want ErrIncompatible", workers, err)
		}
		for _, part := range []string{"level 0", "T#0", "u∩[q1,q2]", "element 1"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("error %q does not name %q", err, part)
			}
		}
	}
	m, err := New(db, query.MustUCQ("u", q2, q1), Options{})
	if err != nil {
		t.Fatalf("the compatible order: %v", err)
	}
	if m.Count() != 6 {
		t.Fatalf("Count = %d, want 6", m.Count())
	}
	// Restore assembles through the same fence build: the compatible
	// union's indexes, handed back as the union the other way round, are
	// refused as New refuses it.
	idx := m.Indexes() // q2, q1, q2∩q1
	for _, workers := range []int{1, 4} {
		_, err := Restore(query.MustUCQ("u", q1, q2), []*access.Index{idx[1], idx[0], idx[2]}, workers)
		if !errors.Is(err, ErrIncompatible) || !strings.Contains(err.Error(), "element 1 ") {
			t.Fatalf("workers %d: Restore of the incompatible order = %v, want ErrIncompatible at element 1", workers, err)
		}
	}
}

// TestFenceBuildChecksEveryElement: the fence build ranks every element of
// T, not only the fenced ones, so an element out of order between two fences
// is refused at build. Each chunk of the parallel walk compares its first
// element with the one before it, so a regression across a chunk boundary
// is found too, and the smallest failing element is the one named whatever
// the worker count. The fences of a set in order do not depend on it either.
func TestFenceBuildChecksEveryElement(t *testing.T) {
	for _, tc := range []struct {
		n     int
		swaps []int // element s changes places with s+1
		want  string
	}{
		{6, []int{3}, "element 4 "},
		{1000, []int{499, 800}, "element 500 "}, // 4 workers split T at 250, 500, 750
	} {
		order := make([]int, tc.n)
		for i := range order {
			order[i] = i
		}
		for _, s := range tc.swaps {
			order[s], order[s+1] = order[s+1], order[s]
		}
		db, q1, q2 := incompatibleFixture(order...)
		m, err := New(db, query.MustUCQ("u", q2, q1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := &m.levels[0].ts[0]
		var fences [][]int64
		for _, w := range []int{1, 4} {
			ts.fence = nil
			if err := ts.buildFence(7, w); err != nil {
				t.Fatalf("n %d workers %d: the compatible order: %v", tc.n, w, err)
			}
			fences = append(fences, ts.fence)
		}
		if !slices.Equal(fences[0], fences[1]) {
			t.Fatalf("n %d: fences at 1 worker %v, at 4 %v", tc.n, fences[0], fences[1])
		}
		// Rank q2∩q1 in q1 instead of q2: the set New would refuse for q1 ∪ q2.
		ts.a = m.Indexes()[1]
		for _, stride := range []int64{1, 5} {
			for _, w := range []int{1, 4} {
				ts.fence = nil
				if err := ts.buildFence(stride, w); !errors.Is(err, ErrIncompatible) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("n %d stride %d workers %d over the swapped pairs = %v, want ErrIncompatible at %q",
						tc.n, stride, w, err, tc.want)
				}
			}
		}
	}
}
