package reduce

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/synth"
)

// TestEliminationMatchesDefinition is the key structural consistency check of
// the library: for random queries, the constructive pipeline (BuildFullJoin's
// protected GYO elimination) must succeed exactly on the queries the
// definitional test (hypergraph.IsFreeConnex — GYO on H and on H ∪ {head})
// accepts. If these ever diverged, either the classifier or the construction
// would be wrong.
func TestEliminationMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	tested, fcCount := 0, 0
	for iter := 0; iter < 3000; iter++ {
		// Random query: 1-4 atoms, arity 1-3, head = random subset of vars.
		q := synth.RandomCQ(rng, "q", false, 0)
		if q == nil {
			continue // a relation at two arities
		}
		tested++

		// A tiny database covering every relation/arity the query uses.
		db, err := synth.RandomDB(rng, []*query.CQ{q}, 10, 4)
		if err != nil {
			t.Fatal(err)
		}
		fj, err := BuildFullJoin(db, q, Options{})
		def := hypergraph.IsFreeConnex(q)
		if def != (err == nil) {
			t.Fatalf("iter %d: IsFreeConnex=%v but BuildFullJoin err=%v for %v", iter, def, err, q)
		}
		if err != nil {
			// Error classification must be one of the two public reasons.
			if !errors.Is(err, ErrCyclic) && !errors.Is(err, ErrNotFreeConnex) {
				t.Fatalf("iter %d: unexpected error type %v", iter, err)
			}
			continue
		}
		fcCount++
		// And the construction must be semantically correct.
		want, err := naive.Evaluate(db, q)
		if err != nil {
			t.Fatal(err)
		}
		got := fj.Answers()
		if !naive.SameAnswerSet(got, want) {
			t.Fatalf("iter %d: wrong answers for %v: got %d want %d", iter, q, len(got), len(want))
		}
	}
	if tested < 500 || fcCount < 100 {
		t.Fatalf("test too weak: %d queries tested, %d free-connex", tested, fcCount)
	}
}
