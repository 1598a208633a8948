package access

import (
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/synth"
)

// forceParallel builds with the wave scheduler regardless of input size.
var forceParallel = BuildOptions{Workers: 8, SerialThreshold: 1}

// TestParallelBuildMatchesSerial: the parallel (wave-scheduled) build must
// produce an index with the same count and the exact same enumeration order
// as the serial recursive build, on star, chain and skewed inputs.
func TestParallelBuildMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*relation.Database, *query.CQ, error)
	}{
		{"star4", func() (*relation.Database, *query.CQ, error) {
			return synth.Star(synth.Config{Relations: 4, TuplesPerRelation: 3000, KeyDomain: 200, Seed: 3})
		}},
		{"star4skew", func() (*relation.Database, *query.CQ, error) {
			return synth.Star(synth.Config{Relations: 4, TuplesPerRelation: 3000, KeyDomain: 200, Seed: 4, SkewS: 1.8})
		}},
		{"chain5", func() (*relation.Database, *query.CQ, error) {
			return synth.Chain(synth.Config{Relations: 5, TuplesPerRelation: 2000, KeyDomain: 60, Seed: 5})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, q, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := NewWithOptions(fj, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewWithOptions(fj, forceParallel)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Count() != par.Count() {
				t.Fatalf("count diverged: serial %d, parallel %d", serial.Count(), par.Count())
			}
			n := serial.Count()
			if n == 0 {
				t.Skip("degenerate workload")
			}
			// Full equality is O(n · arity); cap the sweep but always include
			// the boundaries.
			probe := func(j int64) {
				a, err := serial.Access(j)
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.Access(j)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Equal(b) {
					t.Fatalf("Access(%d): serial %v, parallel %v", j, a, b)
				}
				if jj, ok := par.InvertedAccess(a); !ok || jj != j {
					t.Fatalf("parallel InvertedAccess(%v) = %d,%v want %d", a, jj, ok, j)
				}
			}
			probe(0)
			probe(n - 1)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 5000; i++ {
				probe(rng.Int63n(n))
			}
		})
	}
}

// TestParallelBuildZeroWeightTuples: without the Yannakakis full reduce,
// dangling tuples get weight zero during the build — the parallel build must
// handle them identically.
func TestParallelBuildZeroWeightTuples(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		r.MustInsert(relation.Value(rng.Intn(50)), relation.Value(rng.Intn(30)))
		s.MustInsert(relation.Value(rng.Intn(30)+15), relation.Value(rng.Intn(50)))
	}
	q := query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	fj, err := reduce.BuildFullJoin(db, q, reduce.Options{SkipFullReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewWithOptions(fj, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewWithOptions(fj, forceParallel)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Count() != par.Count() {
		t.Fatalf("count diverged: %d vs %d", serial.Count(), par.Count())
	}
	for j := int64(0); j < serial.Count(); j++ {
		a, _ := serial.Access(j)
		b, err := par.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("Access(%d) diverged", j)
		}
	}
}

// TestAccessBatchSemantics pins the AccessBatch contract: order-preserving,
// duplicate-tolerant, empty-safe, and all-or-nothing on out-of-range input.
func TestAccessBatchSemantics(t *testing.T) {
	db, q, err := synth.Chain(synth.Config{Relations: 3, TuplesPerRelation: 1500, KeyDomain: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	idx := buildIndex(t, db, q)
	n := idx.Count()
	if n < 10 {
		t.Skip("degenerate workload")
	}
	for _, workers := range []int{0, 1, 3} {
		// Order preservation + duplicates.
		js := []int64{n - 1, 0, 5, 5, n / 2, 0}
		got, err := idx.AccessBatch(js, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(js) {
			t.Fatalf("len %d want %d", len(got), len(js))
		}
		for i, j := range js {
			want, _ := idx.Access(j)
			if !got[i].Equal(want) {
				t.Fatalf("workers=%d batch[%d] (j=%d) = %v want %v", workers, i, j, got[i], want)
			}
		}
		if !got[2].Equal(got[3]) {
			t.Fatal("duplicate positions returned different answers")
		}
		// Empty batch.
		empty, err := idx.AccessBatch(nil, workers)
		if err != nil || len(empty) != 0 {
			t.Fatalf("empty batch: %v, %v", empty, err)
		}
		// Out of range: whole call fails, no partial results.
		for _, bad := range [][]int64{{-1}, {n}, {0, n, 1}, {1 << 62}} {
			if _, err := idx.AccessBatch(bad, workers); err != ErrOutOfBounds {
				t.Fatalf("AccessBatch(%v) err = %v, want ErrOutOfBounds", bad, err)
			}
		}
	}
	// A batch large enough to cross the fan-out threshold.
	rng := rand.New(rand.NewSource(10))
	big := make([]int64, 4*BatchSerialThreshold)
	for i := range big {
		big[i] = rng.Int63n(n)
	}
	got, err := idx.AccessBatch(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range big {
		want, _ := idx.Access(j)
		if !got[i].Equal(want) {
			t.Fatalf("big batch diverged at %d", i)
		}
	}
}
