package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// hashedGrouping is GroupBy's hashed path on r's columns at positions,
// whatever their span: the reference the direct-addressed path must match.
func hashedGrouping(r *Relation, positions []int) *Grouping {
	g := &Grouping{width: len(positions), GroupOf: make([]uint32, r.n), positions: positions}
	g.keyCols = r.keyCols(positions)
	g.table, g.first = groupRows(g.keyCols, r.n, g.GroupOf, 0)
	g.numGroups = len(g.first)
	return g
}

// TestGroupByDenseMatchesHashed: on a single key column whose span is dense,
// GroupBy direct-addresses, and it gives the hashed path's GroupOf, group
// count and first rows, and LookupRows gives its ids, before and after
// SortRows — values just outside the span and the extremes of int64 miss —
// and every row misses after ReleaseKeys.
func TestGroupByDenseMatchesHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		lo         Value
		span, rows int
	}{
		{0, 7, 40},
		{-3, 50, 20},
		{1 << 40, 500, 300},
		{math.MaxInt64 - 99, 100, 100},
		{math.MinInt64, 64, 65},
		{5, 1, 3},
		{0, 1000, 250}, // span = denseSpanFactor × rows
	} {
		name := fmt.Sprintf("lo=%d/span=%d/rows=%d", tc.lo, tc.span, tc.rows)
		r := NewRelation("R", MustSchema("a", "b"))
		for i := 0; i < tc.rows; i++ {
			d := rng.Intn(tc.span)
			switch i {
			case 1:
				d = 0
			case 2:
				d = tc.span - 1
			}
			r.MustInsert(tc.lo+Value(d), Value(i))
		}
		g, h := r.GroupBy([]int{0}), hashedGrouping(r, []int{0})
		if g.ids == nil {
			t.Fatalf("%s: GroupBy did not direct-address", name)
		}
		if g.NumGroups() != h.NumGroups() || fmt.Sprint(g.GroupOf) != fmt.Sprint(h.GroupOf) || fmt.Sprint(g.first) != fmt.Sprint(h.first) {
			t.Fatalf("%s: direct %d groups %v first %v, hashed %d groups %v first %v",
				name, g.NumGroups(), g.GroupOf, g.first, h.NumGroups(), h.GroupOf, h.first)
		}

		// Probes: every value of the span, the values on either side of it,
		// and the extremes of int64 (wrapping, lo−1 and lo+span can be
		// either of them).
		s := NewRelation("S", MustSchema("z", "a"))
		for d := -1; d <= tc.span; d++ {
			s.MustInsert(Value(d), tc.lo+Value(d))
		}
		s.MustInsert(-2, math.MinInt64)
		s.MustInsert(-3, math.MaxInt64)
		lookups := func(stage string, g, h *Grouping) {
			t.Helper()
			got, want := g.LookupRows(s, []int{1}), h.LookupRows(s, []int{1})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %s: direct LookupRows %v, hashed %v", name, stage, got, want)
			}
			for i, k := range got {
				if v := s.Col(1)[i]; (v < tc.lo || v > tc.lo+Value(tc.span-1)) && k != -1 {
					t.Fatalf("%s %s: value %d outside the span in group %d", name, stage, v, k)
				}
			}
		}
		lookups("built", g, h)

		gs, goff, gslot := g.SortRows(r)
		hs, hoff, hslot := h.SortRows(r)
		if fmt.Sprint(gs.Tuples(), goff, gslot, g.GroupOf, g.first) != fmt.Sprint(hs.Tuples(), hoff, hslot, h.GroupOf, h.first) {
			t.Fatalf("%s: SortRows differs between the direct and the hashed grouping", name)
		}
		lookups("sorted", g, h)
		if got, want := g.LookupRows(gs, []int{0}), h.LookupRows(hs, []int{0}); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: LookupRows of the sorted relation: direct %v, hashed %v", name, got, want)
		}

		g.ReleaseKeys()
		for i, k := range g.LookupRows(s, []int{1}) {
			if k != -1 {
				t.Fatalf("%s: after ReleaseKeys, row %d in group %d", name, i, k)
			}
		}
	}
}

// TestGroupByDenseAllocs pins what the direct path costs: a key column of
// few rows over a wide span is hashed, whatever the span (2^19 is below the
// bitmap's cache-sized floor, which grouping does not take), and n rows of
// n distinct values allocate at most 16 bytes a row besides GroupOf.
func TestGroupByDenseAllocs(t *testing.T) {
	groupBytes := func(r *Relation) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := r.GroupBy([]int{0})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		return after.TotalAlloc - before.TotalAlloc - 4*uint64(r.Len())
	}
	for _, width := range []Value{1 << 40, 1 << 19} {
		r := NewRelation("R", MustSchema("a"))
		for i := Value(0); i < 100; i++ {
			r.MustInsert(i * width / 99)
		}
		if b := groupBytes(r); b >= 64<<10 {
			t.Fatalf("GroupBy of 100 rows spanning %d allocated %d bytes, want < 64 KiB", width, b)
		}
	}
	const n = 1 << 16
	r := NewRelation("R", MustSchema("a"))
	for _, v := range rand.New(rand.NewSource(1)).Perm(n) {
		r.MustInsert(Value(v))
	}
	if b := groupBytes(r); b > 16*n {
		t.Fatalf("GroupBy of %d dense rows allocated %d bytes beyond GroupOf, want ≤ %d", n, b, 16*n)
	}
}
