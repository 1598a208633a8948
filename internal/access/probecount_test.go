package access

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
)

// CountByProbing determines the number of answers of a random-access
// structure using only its access routine, exactly as in the proof of
// Theorem 3.7: out-of-bound probes drive an exponential search for an upper
// bound followed by a binary search, so the count is found with
// O(log |answers|) probes. This library's indexes carry an explicit count;
// the function documents and tests the paper's argument.
//
// probe(j) must return nil for 0 ≤ j < n and ErrOutOfBounds (or any error)
// for j ≥ n.
func CountByProbing(probe func(j int64) error) int64 {
	if probe(0) != nil {
		return 0
	}
	// Exponential search for the first out-of-bound power of two.
	hi := int64(1)
	for probe(hi) == nil {
		if hi > (1 << 61) {
			// Defensive: a probe that never errors would loop forever.
			return hi
		}
		hi <<= 1
	}
	lo := hi / 2 // in bounds
	// Binary search for the last in-bound index in (lo, hi).
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if probe(mid) == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}

var errProbe = errors.New("access: probe out of bounds")

func TestCountByProbingQuick(t *testing.T) {
	prop := func(nRaw uint32) bool {
		n := int64(nRaw % 5_000_000)
		probes := 0
		got := CountByProbing(func(j int64) error {
			probes++
			if j < n {
				return nil
			}
			return errProbe
		})
		if got != n {
			return false
		}
		// O(log n) probes: generous bound 2·log2(n) + 4.
		limit := 4
		for x := n; x > 0; x >>= 1 {
			limit += 2
		}
		return probes <= limit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountByProbingEdges(t *testing.T) {
	if got := CountByProbing(func(int64) error { return errProbe }); got != 0 {
		t.Fatalf("empty count = %d", got)
	}
	if got := CountByProbing(func(j int64) error {
		if j == 0 {
			return nil
		}
		return errProbe
	}); got != 1 {
		t.Fatalf("singleton count = %d", got)
	}
}

// TestCountByProbingAgainstIndex: probing a real index recovers its count.
func TestCountByProbingAgainstIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < 100; i++ {
		r.MustInsert(relation.Value(rng.Intn(20)), relation.Value(rng.Intn(8)))
		s.MustInsert(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(20)))
	}
	q := query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	idx := buildIndex(t, db, q)
	buf := make(relation.Tuple, 3)
	got := CountByProbing(func(j int64) error { return idx.AccessInto(j, buf) })
	if got != idx.Count() {
		t.Fatalf("probed count %d, index count %d", got, idx.Count())
	}
}
