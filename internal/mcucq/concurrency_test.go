package mcucq

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

var errInconsistent = errors.New("concurrent union probe returned inconsistent result")

// unionFixture builds a 3-disjunct overlapping union over one binary
// relation (selections of R by range), which is mutually compatible by
// construction.
func unionFixture(t *testing.T) (*relation.Database, *query.UCQ) {
	t.Helper()
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		r.MustInsert(relation.Value(rng.Intn(40)), relation.Value(rng.Intn(12)))
		s.MustInsert(relation.Value(rng.Intn(12)), relation.Value(rng.Intn(40)))
	}
	q1 := query.MustCQ("q1", []string{"a", "b"},
		query.NewAtom("R", query.V("a"), query.V("b")))
	q2 := query.MustCQ("q2", []string{"a", "b"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	q3 := query.MustCQ("q3", []string{"b", "c"},
		query.NewAtom("S", query.V("b"), query.V("c")))
	// q3 has a different head meaning but equal arity; union q1∪q2 plus a
	// same-shape selection keeps all intersections free-connex.
	u := query.MustUCQ("u", q1, q2, q3)
	return db, u
}

// TestParallelPrepareMatchesSerial: Options.Workers must not change the
// structure — counts, every answer, and every inverted rank agree with the
// serial preparation.
func TestParallelPrepareMatchesSerial(t *testing.T) {
	db, u := unionFixture(t)
	serial, err := New(db, u, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(db, u, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Count() != par.Count() {
		t.Fatalf("count diverged: %d vs %d", serial.Count(), par.Count())
	}
	for j := int64(0); j < serial.Count(); j++ {
		a, err := serial.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("Access(%d): %v vs %v", j, a, b)
		}
	}
}

// TestConcurrentUnionProbes hammers one shared MCUCQ from many goroutines
// with Access, Test and batched permutation draws (run with -race).
func TestConcurrentUnionProbes(t *testing.T) {
	db, u := unionFixture(t)
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Count()
	if n == 0 {
		t.Skip("degenerate")
	}
	want := make([]relation.Tuple, n)
	for j := range want {
		a, err := m.Access(int64(j))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = a
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				switch i % 3 {
				case 0:
					j := local.Int63n(n)
					a, err := m.Access(j)
					if err != nil {
						errs <- err
						return
					}
					if !a.Equal(want[j]) || !m.Test(a) {
						errs <- errInconsistent
						return
					}
				case 1:
					if m.Test(relation.Tuple{relation.Value(1 << 40), relation.Value(1)}) {
						errs <- errInconsistent
						return
					}
				case 2:
					// Each goroutine owns its permutation cursor; the cursors
					// share the index. NextN fans probes out internally.
					p := m.Permute(local)
					batch := p.NextN(16, 4)
					for _, a := range batch {
						if !m.Test(a) {
							errs <- errInconsistent
							return
						}
					}
				}
			}
		}(int64(500 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPermutationNextNMatchesNext: for the same rng seed, NextN must emit
// exactly the sequence that repeated Next calls emit.
func TestPermutationNextNMatchesNext(t *testing.T) {
	db, u := unionFixture(t)
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() == 0 {
		t.Skip("degenerate")
	}
	serial := m.Permute(rand.New(rand.NewSource(77)))
	var want []relation.Tuple
	for {
		a, ok := serial.Next()
		if !ok {
			break
		}
		want = append(want, a)
	}
	batched := m.Permute(rand.New(rand.NewSource(77)))
	var got []relation.Tuple
	for {
		chunk := batched.NextN(7, 3)
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("position %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// callerSpy wraps a disjunct and counts the probes that run without the
// named test function on their stack: on some goroutine other than the one
// the test made the batched call from.
type callerSpy struct {
	disjunct
	caller  string
	strayed *atomic.Int64
}

func (s callerSpy) AccessInto(j int64, answer relation.Tuple) error {
	if !bytes.Contains(debug.Stack(), []byte(s.caller)) {
		s.strayed.Add(1)
	}
	return s.disjunct.AccessInto(j, answer)
}

// TestSmallUnionBatchStaysOnCaller: a union batch below the serial
// threshold — a 64-answer page or cursor draw — is probed on the calling
// goroutine whatever the worker budget; it used to fork GOMAXPROCS
// goroutines per request.
func TestSmallUnionBatchStaysOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // workers <= 0 means GOMAXPROCS
	db, u := unionFixture(t)
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var strayed atomic.Int64
	for i, d := range m.firsts {
		m.firsts[i] = callerSpy{d, "TestSmallUnionBatchStaysOnCaller", &strayed}
	}

	rng := rand.New(rand.NewSource(5))
	positions := func(k int) []int64 {
		js := make([]int64, k)
		for i := range js {
			js[i] = rng.Int63n(m.Count())
		}
		return js
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []context.Context{context.Background(), ctx} {
		if _, err := m.AccessBatchContext(c, positions(64), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Permute(rng).NextN(64, 0); len(got) != 64 {
		t.Fatalf("NextN(64) returned %d answers", len(got))
	}
	if n := strayed.Load(); n != 0 {
		t.Fatalf("%d probes of 64-position batches ran off the calling goroutine", n)
	}

	// The spy does see a fan-out: a batch above the threshold strays.
	if _, err := m.AccessBatchContext(context.Background(), positions(4*access.BatchSerialThreshold), 0); err != nil {
		t.Fatal(err)
	}
	if strayed.Load() == 0 {
		t.Fatal("a 1024-position batch on 4 workers ran entirely on the calling goroutine: the spy sees nothing")
	}
}
