package cqenum

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
)

func testDB(seed int64, n int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(5)))
		s.MustInsert(relation.Value(rng.Intn(5)), relation.Value(rng.Intn(10)))
	}
	return db
}

func chainQ() *query.CQ {
	return query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
}

func TestPrepareRejectsNonFreeConnex(t *testing.T) {
	db := testDB(1, 20)
	q := query.MustCQ("bad", []string{"a", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	if _, err := Prepare(db, q, reduce.Options{}); err == nil {
		t.Fatal("non-free-connex accepted")
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	db := testDB(3, 50)
	q := chainQ()
	c, err := Prepare(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.Evaluate(db, q)
	p := c.Permute(rand.New(rand.NewSource(4)))
	seen := make(map[string]bool)
	var got []relation.Tuple
	if p.Remaining() != int64(len(want)) {
		t.Fatal("Remaining wrong at start")
	}
	for {
		tup, ok := p.Next()
		if !ok {
			break
		}
		k := tup.Key()
		if seen[k] {
			t.Fatalf("duplicate answer %v", tup)
		}
		seen[k] = true
		got = append(got, tup)
	}
	if !naive.SameAnswerSet(got, want) {
		t.Fatal("permutation missed answers")
	}
	if _, ok := p.Next(); ok {
		t.Fatal("Next after exhaustion")
	}
}

// TestRandomPermutationUniform checks that the full output order is uniform
// over permutations on a tiny instance (3 answers → 6 orders).
func TestRandomPermutationUniform(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	r.MustInsert(1, 1)
	r.MustInsert(2, 1)
	r.MustInsert(3, 2)
	s.MustInsert(1, 7)
	s.MustInsert(2, 8)
	// Answers: (1,1,7), (2,1,7), (3,2,8) — exactly 3.
	c, err := Prepare(db, chainQ(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	rng := rand.New(rand.NewSource(5))
	const trials = 30000
	counts := make(map[string]int)
	for i := 0; i < trials; i++ {
		p := c.Permute(rng)
		sig := ""
		for {
			tup, ok := p.Next()
			if !ok {
				break
			}
			sig += tup.Key()
		}
		counts[sig]++
	}
	if len(counts) != 6 {
		t.Fatalf("observed %d orders, want 6", len(counts))
	}
	expected := float64(trials) / 6
	for sig, cnt := range counts {
		if math.Abs(float64(cnt)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("order %x count %d, expected ~%.0f", sig, cnt, expected)
		}
	}
}

// TestFirstAnswerUniform: the first emitted answer must be uniform over the
// answer set (the property downstream "representative prefix" applications
// rely on).
func TestFirstAnswerUniform(t *testing.T) {
	db := testDB(6, 30)
	c, err := Prepare(db, chainQ(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := int(c.Count())
	if n < 5 {
		t.Skip("instance too small")
	}
	rng := rand.New(rand.NewSource(7))
	trials := 300 * n
	counts := make(map[string]int)
	for i := 0; i < trials; i++ {
		p := c.Permute(rng)
		tup, _ := p.Next()
		counts[tup.Key()]++
	}
	expected := float64(trials) / float64(n)
	for _, cnt := range counts {
		if math.Abs(float64(cnt)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("first answer count %d, expected ~%.0f", cnt, expected)
		}
	}
}

func TestDeletableSet(t *testing.T) {
	db := testDB(8, 40)
	c, err := Prepare(db, chainQ(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := c.NewDeletableSet()
	rng := rand.New(rand.NewSource(9))
	total := set.Count()
	if total != c.Count() {
		t.Fatal("initial count mismatch")
	}
	// Drain by sample+delete; every sampled answer must be located where it
	// was sampled before deletion and nowhere after.
	buf := make(relation.Tuple, set.Arity())
	drained := int64(0)
	for set.Count() > 0 {
		pos, ok := set.Sample(rng, buf)
		if !ok {
			t.Fatal("sample failed")
		}
		if want, err := c.Index.Access(pos); err != nil || !buf.Equal(want) {
			t.Fatalf("sampled %v at position %d, which holds %v (%v)", buf, pos, want, err)
		}
		if at, ok := set.Locate(buf); !ok || at != pos {
			t.Fatalf("sampled tuple %v located at (%d, %v), sampled at %d", buf, at, ok, pos)
		}
		if !set.DeleteAt(pos) {
			t.Fatal("delete failed")
		}
		if _, ok := set.Locate(buf); ok {
			t.Fatal("deleted tuple is still located")
		}
		if set.DeleteAt(pos) {
			t.Fatal("double delete succeeded")
		}
		drained++
	}
	if drained != total {
		t.Fatalf("drained %d, want %d", drained, total)
	}
	// Non-answers.
	if _, ok := set.Locate(relation.Tuple{99, 99, 99}); ok {
		t.Fatal("non-answer is located")
	}
	if set.DeleteAt(-1) || set.DeleteAt(total) {
		t.Fatal("a position outside the set was deleted")
	}
	if _, ok := set.Sample(rng, buf); ok {
		t.Fatal("sample from empty set")
	}
}

func TestPermutationEmptyResult(t *testing.T) {
	db := relation.NewDatabase()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	c, err := Prepare(db, chainQ(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Permute(rand.New(rand.NewSource(1)))
	if _, ok := p.Next(); ok {
		t.Fatal("empty permutation emitted")
	}
	if _, err := c.Index.Access(0); err == nil {
		t.Fatal("empty enumeration emitted")
	}
}
