package renum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/naive"
	"repro/internal/tpch"
	"repro/internal/tpchq"
)

// TestQuickAccessBijection is the central end-to-end property test: for
// random databases and a pool of free-connex queries, Access is a bijection
// from [0, Count()) onto Q(D) and InvertedAccess is its inverse.
func TestQuickAccessBijection(t *testing.T) {
	queries := []*CQ{
		MustCQ("full", []string{"a", "b", "c"},
			NewAtom("R", V("a"), V("b")),
			NewAtom("S", V("b"), V("c"))),
		MustCQ("proj", []string{"a", "b"},
			NewAtom("R", V("a"), V("b")),
			NewAtom("S", V("b"), V("c"))),
		MustCQ("selfjoin", []string{"a", "b", "c"},
			NewAtom("R", V("a"), V("b")),
			NewAtom("R", V("b"), V("c"))),
		MustCQ("const", []string{"b", "c"},
			NewAtom("R", C(0), V("b")),
			NewAtom("S", V("b"), V("c"))),
		MustCQ("repeat", []string{"a"},
			NewAtom("R", V("a"), V("a"))),
	}
	prop := func(seed int64, sizeRaw uint8, domRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeRaw%60) + 1
		dom := int64(domRaw%8) + 2
		db := NewDatabase()
		r := db.MustCreate("R", "r1", "r2")
		s := db.MustCreate("S", "s1", "s2")
		for i := 0; i < size; i++ {
			r.MustInsert(Value(rng.Int63n(dom)), Value(rng.Int63n(dom)))
			s.MustInsert(Value(rng.Int63n(dom)), Value(rng.Int63n(dom)))
		}
		for _, q := range queries {
			ra, err := Open(db, q, WithPlanner(PlannerOff))
			if err != nil {
				return false
			}
			inv, err := ra.Inverter()
			if err != nil {
				return false
			}
			want, err := Evaluate(db, q)
			if err != nil || ra.Count() != int64(len(want)) {
				return false
			}
			seen := make(map[string]bool, len(want))
			for j := int64(0); j < ra.Count(); j++ {
				a, err := ra.Access(j)
				if err != nil || seen[a.Key()] {
					return false
				}
				seen[a.Key()] = true
				if jj, ok := inv.InvertedAccess(a); !ok || jj != j {
					return false
				}
			}
			for _, w := range want {
				if !seen[w.Key()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionEnumeration: REnum(UCQ) emits exactly the union, without
// repetition, for random overlapping databases.
func TestQuickUnionEnumeration(t *testing.T) {
	q1 := MustCQ("q1", []string{"x", "y"}, NewAtom("R", V("x"), V("y")))
	q2 := MustCQ("q2", []string{"x", "y"}, NewAtom("S", V("x"), V("y")))
	q3 := MustCQ("q3", []string{"x", "y"},
		NewAtom("R", V("x"), V("z")),
		NewAtom("S", V("z"), V("y")),
		NewAtom("T", V("z"), V("y")))
	_ = q3
	u := MustUCQ("u", q1, q2)
	prop := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeRaw%40) + 1
		db := NewDatabase()
		r := db.MustCreate("R", "r1", "r2")
		s := db.MustCreate("S", "s1", "s2")
		for i := 0; i < size; i++ {
			r.MustInsert(Value(rng.Int63n(6)), Value(rng.Int63n(6)))
			s.MustInsert(Value(rng.Int63n(6)), Value(rng.Int63n(6)))
		}
		want, err := EvaluateUCQ(db, u)
		if err != nil {
			return false
		}
		e, err := NewRandomOrderUnion(db, u, rng)
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		for {
			a, ok := e.Next()
			if !ok {
				break
			}
			if seen[a.Key()] {
				return false
			}
			seen[a.Key()] = true
		}
		if len(seen) != len(want) {
			return false
		}
		// mc-UCQ must agree on the count when it applies (R and S aligned).
		ua, err := Open(db, u, WithPlanner(PlannerOff))
		if err != nil {
			return false
		}
		return ua.Count() == int64(len(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTPCHEndToEnd exercises the whole stack on generated TPC-H data through
// the public API only.
func TestTPCHEndToEnd(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := tpchq.PrepareDerived(db); err != nil {
		t.Fatal(err)
	}
	for _, q := range tpchq.CQs() {
		ra, err := Open(db, q, WithPlanner(PlannerOff))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		in := mustContainer(t, ra)
		want, err := naive.Evaluate(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Count() != int64(len(want)) {
			t.Fatalf("%s: count %d, oracle %d", q.Name, ra.Count(), len(want))
		}
		// Random permutation prefix must contain distinct answers only.
		p, err := ra.Permute(rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for i := 0; i < 100; i++ {
			a, ok := p.Next()
			if !ok {
				break
			}
			if seen[a.Key()] {
				t.Fatalf("%s: duplicate in permutation", q.Name)
			}
			seen[a.Key()] = true
			if !in.Contains(a) {
				t.Fatalf("%s: emitted non-answer", q.Name)
			}
		}
	}
	for _, u := range tpchq.UCQs() {
		ua, err := Open(db, u, WithPlanner(PlannerOff))
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		e, err := NewRandomOrderUnion(db, u, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for {
			if _, ok := e.Next(); !ok {
				break
			}
			n++
		}
		if n != ua.Count() {
			t.Fatalf("%s: REnum(UCQ) emitted %d, mc-UCQ counted %d", u.Name, n, ua.Count())
		}
	}
}

// TestQuickPermutationPrefixUniform: on small instances, the first element
// of the permutation is uniform (a cheap distributional check under quick).
func TestQuickPermutationPrefixUniform(t *testing.T) {
	db := NewDatabase()
	r := db.MustCreate("R", "a")
	for i := 0; i < 8; i++ {
		r.MustInsert(Value(i))
	}
	q := MustCQ("q", []string{"a"}, NewAtom("R", V("a")))
	ra := asParsed(t, db, q)
	counts := make([]int, 8)
	rng := rand.New(rand.NewSource(77))
	const trials = 16000
	for i := 0; i < trials; i++ {
		p, err := ra.Permute(rng)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := p.Next()
		counts[a[0]]++
	}
	for v, c := range counts {
		if c < trials/8-6*50 || c > trials/8+6*50 { // ±6σ, σ≈sqrt(2000·7/64)≈42
			t.Fatalf("value %d count %d far from %d", v, c, trials/8)
		}
	}
}
