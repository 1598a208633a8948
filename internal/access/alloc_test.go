package access

import (
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/synth"
)

// The probe paths are advertised allocation-free (package doc, README): no
// key is ever encoded to a string on the heap and no intermediate tuple is
// materialized. These tests pin that with testing.AllocsPerRun on both key
// representations — the packed 64-bit fast path (arity ≤ 2 nodes) and the
// wide stack-buffered string path (arity ≥ 3 nodes).

func allocIndexes(t *testing.T) map[string]*Index {
	t.Helper()
	out := make(map[string]*Index)

	// Chain: every node has arity 2 → packed keys end to end.
	db, q, err := synth.Chain(synth.Config{Relations: 3, TuplesPerRelation: 500, KeyDomain: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	out["packed"] = buildIndex(t, db, q)

	// Example 4.4 shape: the root R1 has arity 3 → wide (string) position
	// index probed with a stack buffer.
	db2 := relation.NewDatabase()
	r1 := db2.MustCreate("R1", "v", "w", "x")
	r2 := db2.MustCreate("R2", "w", "y")
	r3 := db2.MustCreate("R3", "x", "z")
	for i := 0; i < 40; i++ {
		r1.MustInsert(relation.Value(i%4), relation.Value(10+i%5), relation.Value(20+i%6))
		r2.MustInsert(relation.Value(10+i%5), relation.Value(30+i%7))
		r3.MustInsert(relation.Value(20+i%6), relation.Value(40+i%8))
	}
	q2 := query.MustCQ("W", []string{"v", "w", "x", "y", "z"},
		query.NewAtom("R1", query.V("v"), query.V("w"), query.V("x")),
		query.NewAtom("R2", query.V("w"), query.V("y")),
		query.NewAtom("R3", query.V("x"), query.V("z")))
	out["wide"] = buildIndex(t, db2, q2)

	return out
}

func TestProbesAreAllocationFree(t *testing.T) {
	for name, idx := range allocIndexes(t) {
		idx := idx
		t.Run(name, func(t *testing.T) {
			n := idx.Count()
			if n == 0 {
				t.Fatal("degenerate workload")
			}
			answer := make(relation.Tuple, len(idx.Head()))
			var j int64
			if got := testing.AllocsPerRun(200, func() {
				if err := idx.AccessInto(j%n, answer); err != nil {
					t.Fatal(err)
				}
				j++
			}); got != 0 {
				t.Errorf("AccessInto allocates %v per op, want 0", got)
			}

			// Collect real answers, then assert the inverted probes are free.
			answers := make([]relation.Tuple, 64)
			for i := range answers {
				a, err := idx.Access(int64(i) % n)
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = a
			}
			j = 0
			if got := testing.AllocsPerRun(200, func() {
				k, ok := idx.InvertedAccess(answers[j%64])
				if !ok || k != int64(j%64)%n {
					t.Fatalf("inverted access broke at %d (k=%d ok=%v)", j, k, ok)
				}
				j++
			}); got != 0 {
				t.Errorf("InvertedAccess allocates %v per op, want 0", got)
			}

			// Contains on misses (the not-an-answer path) must be free too.
			miss := make(relation.Tuple, len(idx.Head()))
			for i := range miss {
				miss[i] = -9999
			}
			if got := testing.AllocsPerRun(200, func() {
				if idx.Contains(miss) {
					t.Fatal("impossible answer reported present")
				}
			}); got != 0 {
				t.Errorf("Contains(miss) allocates %v per op, want 0", got)
			}
		})
	}
}

// TestAccessSingleAllocation pins Access to exactly one allocation per call:
// the returned answer tuple itself.
func TestAccessSingleAllocation(t *testing.T) {
	for name, idx := range allocIndexes(t) {
		idx := idx
		t.Run(name, func(t *testing.T) {
			n := idx.Count()
			var j int64
			if got := testing.AllocsPerRun(200, func() {
				if _, err := idx.Access(j % n); err != nil {
					t.Fatal(err)
				}
				j++
			}); got > 1 {
				t.Errorf("Access allocates %v per op, want ≤ 1 (the answer tuple)", got)
			}
		})
	}
}

// TestFirstProbeBuildsNothing: no work is deferred from the build to the
// first probe — every node relation leaves NewWithOptions with its
// membership index built (the member_index stage, before the gather), so
// the very first InvertedAccess on a fresh index allocates nothing.
// AllocsPerRun would hide a lazy build behind its warm-up call; one counted
// call does not.
func TestFirstProbeBuildsNothing(t *testing.T) {
	for name, idx := range allocIndexes(t) {
		for _, n := range idx.nodes {
			if !n.rel.Indexed() {
				t.Fatalf("%s: node %s reached the index without its membership index", name, n.rel)
			}
		}
		answer, err := idx.Access(idx.Count() - 1)
		if err != nil {
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, ok := idx.InvertedAccess(answer)
		runtime.ReadMemStats(&after)
		if !ok || j != idx.Count()-1 {
			t.Fatalf("%s: InvertedAccess = %d, %v", name, j, ok)
		}
		if m := after.Mallocs - before.Mallocs; m != 0 {
			t.Fatalf("%s: first InvertedAccess allocated %d objects", name, m)
		}
	}
}
