package access

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestConcurrentReads: the index is immutable after construction, so
// concurrent Access / InvertedAccess / sampling from independent RNGs must
// be race-free (run with -race) and return consistent results.
func TestConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < 200; i++ {
		r.MustInsert(relation.Value(rng.Intn(40)), relation.Value(rng.Intn(10)))
		s.MustInsert(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(40)))
	}
	q := query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	idx := buildIndex(t, db, q)
	if idx.Count() == 0 {
		t.Skip("degenerate")
	}

	// Reference pass (single-threaded).
	want := make([]relation.Tuple, idx.Count())
	for j := range want {
		a, err := idx.Access(int64(j))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = a
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				j := local.Int63n(idx.Count())
				a, err := idx.Access(j)
				if err != nil {
					errs <- err
					return
				}
				if !a.Equal(want[j]) {
					errs <- errMismatch
					return
				}
				if jj, ok := idx.InvertedAccess(a); !ok || jj != j {
					errs <- errMismatch
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchErr{}

type mismatchErr struct{}

func (*mismatchErr) Error() string { return "concurrent read returned inconsistent result" }

// TestConcurrentMixedProbes hammers one shared index from many goroutines
// with the full read surface — Access, AccessInto, AccessBatch, batched
// pages, InvertedAccess, Contains and all four baseline samplers — so the
// race detector sees every probe path interleaved with every other.
func TestConcurrentMixedProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	u := db.MustCreate("U", "c", "d")
	for i := 0; i < 400; i++ {
		r.MustInsert(relation.Value(rng.Intn(60)), relation.Value(rng.Intn(15)))
		s.MustInsert(relation.Value(rng.Intn(15)), relation.Value(rng.Intn(20)))
		u.MustInsert(relation.Value(rng.Intn(20)), relation.Value(rng.Intn(60)))
	}
	q := query.MustCQ("q", []string{"a", "b", "c", "d"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")),
		query.NewAtom("U", query.V("c"), query.V("d")))
	idx := buildIndex(t, db, q)
	n := idx.Count()
	if n == 0 {
		t.Skip("degenerate")
	}
	bounds := idx.BaselineBounds()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			buf := make(relation.Tuple, len(idx.Head()))
			for i := 0; i < 300; i++ {
				switch i % 6 {
				case 0:
					j := local.Int63n(n)
					a, err := idx.Access(j)
					if err != nil {
						errs <- err
						return
					}
					if jj, ok := idx.InvertedAccess(a); !ok || jj != j {
						errs <- errMismatch
						return
					}
				case 1:
					if err := idx.AccessInto(local.Int63n(n), buf); err != nil {
						errs <- err
						return
					}
				case 2:
					js := make([]int64, 300) // above BatchSerialThreshold: inner fan-out
					for k := range js {
						js[k] = local.Int63n(n)
					}
					out, err := idx.AccessBatch(js, 4)
					if err != nil {
						errs <- err
						return
					}
					probe := local.Intn(len(js))
					want, _ := idx.Access(js[probe])
					if !out[probe].Equal(want) {
						errs <- errMismatch
						return
					}
				case 3:
					if a, ok := idx.SampleEW(local); !ok || !idx.Contains(a) {
						errs <- errMismatch
						return
					}
				case 4:
					idx.SampleEOTrial(local, bounds)
					idx.SampleOETrial(local, bounds)
					idx.SampleRSTrial(local)
				case 5:
					if idx.Count() != n {
						errs <- errMismatch
						return
					}
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
