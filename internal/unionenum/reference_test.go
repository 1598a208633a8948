package unionenum

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/shuffle"
)

// refSet and refEnumerator are the tuple-level Lemma 5.3 set and Algorithm 5
// loop the position-level ones replaced, kept verbatim as the oracle: the
// rewrite only stops repeating inverted accesses, so the same rng must give
// the same answers in the same order and the same rejections.
type refSet struct {
	idx *access.Index
	del *shuffle.DeletionSet
}

func (s *refSet) Count() int64 { return s.del.Count() }

func (s *refSet) Sample(rng *rand.Rand) (relation.Tuple, bool) {
	j, ok := s.del.Sample(rng)
	if !ok {
		return nil, false
	}
	t, err := s.idx.Access(j)
	if err != nil {
		return nil, false
	}
	return t, true
}

func (s *refSet) Test(t relation.Tuple) bool {
	j, ok := s.idx.InvertedAccess(t)
	if !ok {
		return false
	}
	return !s.del.Deleted(j)
}

func (s *refSet) Delete(t relation.Tuple) bool {
	j, ok := s.idx.InvertedAccess(t)
	if !ok {
		return false
	}
	return s.del.Delete(j)
}

type refEnumerator struct {
	sets       []*refSet
	rng        *rand.Rand
	Rejections int64
}

func (e *refEnumerator) Next() (relation.Tuple, bool) {
	for {
		// Line 1-2: weighted choice of a set by remaining cardinality.
		var total int64
		for _, s := range e.sets {
			total += s.Count()
		}
		if total == 0 {
			return nil, false
		}
		r := e.rng.Int63n(total)
		chosen := -1
		for i, s := range e.sets {
			c := s.Count()
			if r < c {
				chosen = i
				break
			}
			r -= c
		}

		// Line 3: uniform sample from the chosen set.
		element, ok := e.sets[chosen].Sample(e.rng)
		if !ok {
			// Unreachable: chosen has positive count.
			continue
		}

		// Line 4-5: providers and owner.
		owner := -1
		var providers []int
		for i, s := range e.sets {
			if i == chosen || s.Test(element) {
				providers = append(providers, i)
				if owner < 0 {
					owner = i
				}
			}
		}

		// Line 6-7: delete from non-owner providers.
		for _, i := range providers {
			if i != owner {
				e.sets[i].Delete(element)
			}
		}

		// Line 8-9: emit only when the owner was the sampled set.
		if owner == chosen {
			e.sets[owner].Delete(element)
			return element, true
		}
		e.Rejections++
	}
}

// countingSet wraps a Set and counts what Algorithm 5 asks of it.
type countingSet struct {
	Set
	samples, locates, deletes, badDeletes *int64
}

func (s countingSet) Sample(rng *rand.Rand, buf relation.Tuple) (int64, bool) {
	*s.samples++
	return s.Set.Sample(rng, buf)
}

func (s countingSet) Locate(t relation.Tuple) (int64, bool) {
	*s.locates++
	return s.Set.Locate(t)
}

func (s countingSet) DeleteAt(pos int64) bool {
	*s.deletes++
	ok := s.Set.DeleteAt(pos)
	if !ok {
		*s.badDeletes++
	}
	return ok
}

// singles builds the one-atom union Q1(x) :- R1(x) ∪ ... over the given
// value sets.
func singles(values ...[]int) (*relation.Database, *query.UCQ) {
	db := relation.NewDatabase()
	var qs []*query.CQ
	for i, vs := range values {
		name := string(rune('R' + i))
		r := db.MustCreate(name, "x")
		for _, v := range vs {
			r.MustInsert(relation.Value(v))
		}
		qs = append(qs, query.MustCQ("q"+name, []string{"x"}, query.NewAtom(name, query.V("x"))))
	}
	return db, query.MustUCQ("u", qs...)
}

func span(lo, hi int) []int {
	var out []int
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// referenceFixtures are the shapes the rewrite must not tell apart: sets
// that overlap, are disjoint, are identical, and three sets where an element
// can sit in one, two or all of them.
func referenceFixtures() []struct {
	name string
	db   *relation.Database
	u    *query.UCQ
} {
	type fixture = struct {
		name string
		db   *relation.Database
		u    *query.UCQ
	}
	disjointDB, disjoint := singles(span(0, 40), span(100, 160))
	identicalDB, identical := singles(span(0, 200), span(0, 200))
	q3 := query.MustCQ("q3", []string{"x", "y", "z"},
		query.NewAtom("R", query.V("x"), query.V("y")),
		query.NewAtom("T", query.V("x"), query.V("z")))
	rs := ucqRS()
	return []fixture{
		{"overlap", overlapDB(42, 40), ucqRS()},
		{"disjoint", disjointDB, disjoint},
		{"identical", identicalDB, identical},
		{"three-way", overlapDB(7, 60), query.MustUCQ("u3", rs.Disjuncts[0], rs.Disjuncts[1], q3)},
	}
}

// TestNextMatchesTupleLevelReference: same seed, same answers in the same
// order, same Rejections — and, counted at the Set boundary, one Sample and
// exactly k - 1 Locate calls per iteration, every DeleteAt on a position
// that was still remaining.
func TestNextMatchesTupleLevelReference(t *testing.T) {
	for _, fx := range referenceFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			var parts []*cqenum.CQ
			for _, d := range fx.u.Disjuncts {
				c, err := cqenum.Prepare(fx.db, d, reduce.Options{})
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, c)
			}
			k := int64(len(parts))
			for seed := int64(0); seed < 5; seed++ {
				var samples, locates, deletes, badDeletes int64
				ref := &refEnumerator{rng: rand.New(rand.NewSource(seed))}
				sets := make([]Set, k)
				for i, c := range parts {
					ref.sets = append(ref.sets, &refSet{idx: c.Index, del: shuffle.NewDeletionSet(c.Index.Count())})
					sets[i] = countingSet{c.NewDeletableSet(), &samples, &locates, &deletes, &badDeletes}
				}
				got := New(sets, rand.New(rand.NewSource(seed)))
				var answers int64
				var kept []relation.Tuple
				for {
					want, wok := ref.Next()
					have, hok := got.Next()
					if wok != hok || !have.Equal(want) {
						t.Fatalf("seed %d answer %d: (%v, %v), reference (%v, %v)", seed, answers, have, hok, want, wok)
					}
					if !wok {
						break
					}
					answers++
					kept = append(kept, have, want)
				}
				// Emitted tuples belong to the consumer: later draws into
				// the same backing array must not have rewritten them.
				for i := 0; i < len(kept); i += 2 {
					if !kept[i].Equal(kept[i+1]) {
						t.Fatalf("seed %d: answer %d was %v when emitted and reads %v after the drain", seed, i/2, kept[i+1], kept[i])
					}
				}
				if got.Rejections != ref.Rejections {
					t.Fatalf("seed %d: %d rejections, reference %d", seed, got.Rejections, ref.Rejections)
				}
				iterations := answers + got.Rejections
				if samples != iterations {
					t.Fatalf("seed %d: %d Sample calls over %d iterations", seed, samples, iterations)
				}
				if locates != (k-1)*iterations {
					t.Fatalf("seed %d: %d Locate calls over %d iterations of %d sets, want %d", seed, locates, iterations, k, (k-1)*iterations)
				}
				if badDeletes != 0 || deletes < answers {
					t.Fatalf("seed %d: %d DeleteAt calls, %d on a position that was not remaining", seed, deletes, badDeletes)
				}
			}
		})
	}
}

// TestDrainAllocatesPerChunk: a drain allocates one backing array per
// emitChunk answers plus the deletion tables' doublings — far under a tenth
// of an allocation per answer. It used to allocate every tuple, and a
// provider list per iteration.
func TestDrainAllocatesPerChunk(t *testing.T) {
	db, u := singles(span(0, 3000), span(1500, 4500))
	var parts []*cqenum.CQ
	for _, d := range u.Disjuncts {
		c, err := cqenum.Prepare(db, d, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, c)
	}
	var answers int64
	allocs := testing.AllocsPerRun(5, func() {
		sets := make([]Set, len(parts))
		for i, c := range parts {
			sets[i] = c.NewDeletableSet()
		}
		e := New(sets, rand.New(rand.NewSource(3)))
		answers = 0
		for _, ok := e.Next(); ok; _, ok = e.Next() {
			answers++
		}
	})
	if answers != 4500 {
		t.Fatalf("fixture drains only %d answers", answers)
	}
	if per := allocs / float64(answers); per > 0.1 {
		t.Fatalf("%.0f allocations for %d answers: %.3f per answer, want ≤ 0.1", allocs, answers, per)
	}
}
