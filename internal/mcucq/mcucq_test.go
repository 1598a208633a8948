package mcucq

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// alignedDB builds a database where the union disjuncts are the same query
// over different selections of a shared base relation — the structurally
// aligned situation mc-UCQs are designed for (like QS7 ∪ QC7).
func alignedDB(seed int64, n int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	l := db.MustCreate("L", "o", "s") // spine
	nat := db.MustCreate("N", "s", "m")
	for i := 0; i < n; i++ {
		l.MustInsert(relation.Value(rng.Intn(20)), relation.Value(rng.Intn(8)))
	}
	for s := 0; s < 8; s++ {
		nat.MustInsert(relation.Value(s), relation.Value(s%3))
	}
	// Selections of N: m == 0 and m <= 1 (overlapping!).
	db.Add(nat.Filter("N0", func(t relation.Tuple) bool { return t[1] == 0 }))
	db.Add(nat.Filter("N1", func(t relation.Tuple) bool { return t[1] <= 1 }))
	db.Add(nat.Filter("N2", func(t relation.Tuple) bool { return t[1] >= 1 }))
	return db
}

func alignedUCQ2() *query.UCQ {
	q1 := query.MustCQ("q1", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("N0", query.V("s"), query.V("m")))
	q2 := query.MustCQ("q2", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("N1", query.V("s"), query.V("m")))
	return query.MustUCQ("u2", q1, q2)
}

func alignedUCQ3() *query.UCQ {
	mk := func(name, rel string) *query.CQ {
		return query.MustCQ(name, []string{"o", "s", "m"},
			query.NewAtom("L", query.V("o"), query.V("s")),
			query.NewAtom(rel, query.V("s"), query.V("m")))
	}
	return query.MustUCQ("u3", mk("q1", "N0"), mk("q2", "N1"), mk("q3", "N2"))
}

func TestMCUCQMatchesOracle2(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := alignedDB(seed, 60)
		u := alignedUCQ2()
		m, err := New(db, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.EvaluateUCQ(db, u)
		if err != nil {
			t.Fatal(err)
		}
		if m.Count() != int64(len(want)) {
			t.Fatalf("seed %d: Count = %d, oracle %d", seed, m.Count(), len(want))
		}
		var got []relation.Tuple
		seen := make(map[string]bool)
		for j := int64(0); j < m.Count(); j++ {
			a, err := m.Access(j)
			if err != nil {
				t.Fatalf("Access(%d): %v", j, err)
			}
			if seen[a.Key()] {
				t.Fatalf("seed %d: duplicate at %d: %v", seed, j, a)
			}
			seen[a.Key()] = true
			got = append(got, a)
		}
		if !naive.SameAnswerSet(got, want) {
			t.Fatalf("seed %d: wrong answer set", seed)
		}
	}
}

func TestMCUCQMatchesOracle3(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := alignedDB(seed+50, 50)
		u := alignedUCQ3()
		m, err := New(db, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.EvaluateUCQ(db, u)
		if err != nil {
			t.Fatal(err)
		}
		if m.Count() != int64(len(want)) {
			t.Fatalf("seed %d: Count = %d, oracle %d", seed, m.Count(), len(want))
		}
		seen := make(map[string]bool)
		var got []relation.Tuple
		for j := int64(0); j < m.Count(); j++ {
			a, err := m.Access(j)
			if err != nil {
				t.Fatal(err)
			}
			if seen[a.Key()] {
				t.Fatalf("duplicate at %d", j)
			}
			seen[a.Key()] = true
			got = append(got, a)
		}
		if !naive.SameAnswerSet(got, want) {
			t.Fatalf("seed %d: wrong answer set (3-way)", seed)
		}
	}
}

// countUpToViaLargest is the literal Theorem 5.5 formulation of Compute-k's
// term for one intersection: binary-search the largest element c of T that
// precedes position j in A's order, then return T.InvAcc(c) + 1. It
// consults no fence, and is the oracle countUpTo is held to.
func countUpToViaLargest(t *interSet, j int64) int64 {
	var largest relation.Tuple
	lo, hi := int64(0), t.t.Count()-1
	for lo <= hi {
		mid := (lo + hi) / 2
		c, err := t.t.Access(mid)
		if err != nil {
			break
		}
		rank, ok := t.a.InvertedAccess(c)
		if !ok || rank > j {
			hi = mid - 1
		} else {
			largest = c
			lo = mid + 1
		}
	}
	if largest == nil {
		return 0
	}
	r, ok := t.t.InvertedAccess(largest)
	if !ok {
		return 0
	}
	return r + 1
}

// TestMCUCQUseLargestAgrees holds the fenced Compute-k to the appendix's
// Largest formulation: countUpTo(j) equals the oracle for every level,
// every intersection set and every j < |A|.
func TestMCUCQUseLargestAgrees(t *testing.T) {
	four, u4 := fourWayFixture()
	for _, tc := range []struct {
		name string
		db   *relation.Database
		u    *query.UCQ
	}{
		{"three-way", alignedDB(7, 60), alignedUCQ3()},
		{"four-way", four, u4},
	} {
		m, err := New(tc.db, tc.u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		positive := 0
		for l := range m.levels {
			lv := &m.levels[l]
			for ti := range lv.ts {
				ts := &lv.ts[ti]
				for j := int64(0); j < lv.nA; j++ {
					got, want := ts.countUpTo(j), countUpToViaLargest(ts, j)
					if got != want {
						t.Fatalf("%s: level %d T#%d j=%d: countUpTo = %d, Largest oracle %d", tc.name, l, ti, j, got, want)
					}
					if got > 0 {
						positive++
					}
				}
			}
		}
		if positive == 0 {
			t.Fatalf("%s: every count was 0: the fixture tests nothing", tc.name)
		}
	}
}

func TestMCUCQAccessOutOfBounds(t *testing.T) {
	db := alignedDB(1, 30)
	m, err := New(db, alignedUCQ2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(-1); !errors.Is(err, access.ErrOutOfBounds) {
		t.Fatal("negative accepted")
	}
	if _, err := m.Access(m.Count()); !errors.Is(err, access.ErrOutOfBounds) {
		t.Fatal("count accepted")
	}
}

func TestMCUCQTest(t *testing.T) {
	db := alignedDB(2, 40)
	u := alignedUCQ2()
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.EvaluateUCQ(db, u)
	for _, a := range want {
		if !m.Test(a) {
			t.Fatalf("answer %v tests false", a)
		}
	}
	if m.Test(relation.Tuple{1000, 1000, 1000}) {
		t.Fatal("non-answer tests true")
	}
}

func TestMCUCQDisjointUnion(t *testing.T) {
	// Like QA ∪ QE: selections that cannot overlap.
	db := relation.NewDatabase()
	l := db.MustCreate("L", "o", "s")
	nat := db.MustCreate("N", "s", "m")
	for i := 0; i < 50; i++ {
		l.MustInsert(relation.Value(i%17), relation.Value(i%6))
	}
	for s := 0; s < 6; s++ {
		nat.MustInsert(relation.Value(s), relation.Value(s%2))
	}
	db.Add(nat.Filter("NA", func(t relation.Tuple) bool { return t[1] == 0 }))
	db.Add(nat.Filter("NB", func(t relation.Tuple) bool { return t[1] == 1 }))
	q1 := query.MustCQ("qa", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("NA", query.V("s"), query.V("m")))
	q2 := query.MustCQ("qe", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("NB", query.V("s"), query.V("m")))
	u := query.MustUCQ("u", q1, q2)
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.EvaluateUCQ(db, u)
	if m.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", m.Count(), len(want))
	}
	var got []relation.Tuple
	for j := int64(0); j < m.Count(); j++ {
		a, err := m.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	if !naive.SameAnswerSet(got, want) {
		t.Fatal("disjoint union wrong")
	}
}

func TestMCUCQIdenticalDisjuncts(t *testing.T) {
	db := alignedDB(3, 40)
	q1 := query.MustCQ("q1", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("N1", query.V("s"), query.V("m")))
	q2 := query.MustCQ("q2", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("N1", query.V("s"), query.V("m")))
	u := query.MustUCQ("u", q1, q2)
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.EvaluateUCQ(db, u)
	if m.Count() != int64(len(want)) {
		t.Fatalf("identical-disjunct count = %d, want %d", m.Count(), len(want))
	}
}

// TestMCUCQPermutationUniform checks full-order uniformity on a tiny union.
func TestMCUCQPermutationUniform(t *testing.T) {
	db := relation.NewDatabase()
	l := db.MustCreate("L", "o", "s")
	nat := db.MustCreate("N", "s", "m")
	l.MustInsert(1, 0)
	l.MustInsert(2, 1)
	nat.MustInsert(0, 0)
	nat.MustInsert(1, 1)
	db.Add(nat.Filter("N0", func(t relation.Tuple) bool { return t[1] == 0 }))
	db.Add(nat.Filter("N1", func(t relation.Tuple) bool { return t[1] <= 1 }))
	u := alignedUCQ2()
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		p := m.Permute(rng)
		sig := ""
		for {
			a, ok := p.Next()
			if !ok {
				break
			}
			sig += a.Key()
		}
		counts[sig]++
	}
	if len(counts) != 2 {
		t.Fatalf("orders observed: %d, want 2", len(counts))
	}
	for _, c := range counts {
		if math.Abs(float64(c)-trials/2) > 6*math.Sqrt(trials/2) {
			t.Fatalf("order count %d, expected ~%d", c, trials/2)
		}
	}
}

func TestMCUCQPermutationComplete(t *testing.T) {
	db := alignedDB(9, 50)
	u := alignedUCQ3()
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.EvaluateUCQ(db, u)
	p := m.Permute(rand.New(rand.NewSource(10)))
	if p.Remaining() != int64(len(want)) {
		t.Fatal("Remaining wrong")
	}
	seen := make(map[string]bool)
	var got []relation.Tuple
	for {
		a, ok := p.Next()
		if !ok {
			break
		}
		if seen[a.Key()] {
			t.Fatalf("duplicate %v", a)
		}
		seen[a.Key()] = true
		got = append(got, a)
	}
	if !naive.SameAnswerSet(got, want) {
		t.Fatal("permutation incomplete")
	}
}

// fourWayFixture is a union of four nested selections: every one of its
// 7 + 3 + 1 intersections is non-empty.
func fourWayFixture() (*relation.Database, *query.UCQ) {
	db := relation.NewDatabase()
	l := db.MustCreate("L", "o", "s")
	nat := db.MustCreate("N", "s", "m")
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		l.MustInsert(relation.Value(rng.Intn(25)), relation.Value(rng.Intn(10)))
	}
	for s := 0; s < 10; s++ {
		nat.MustInsert(relation.Value(s), relation.Value(s%4))
	}
	for i := 0; i < 4; i++ {
		threshold := relation.Value(i)
		db.Add(nat.Filter(fmt.Sprintf("NF%d", i), func(t relation.Tuple) bool {
			return t[1] <= threshold
		}))
	}
	mk := func(i int) *query.CQ {
		return query.MustCQ(fmt.Sprintf("q%d", i), []string{"o", "s", "m"},
			query.NewAtom("L", query.V("o"), query.V("s")),
			query.NewAtom(fmt.Sprintf("NF%d", i), query.V("s"), query.V("m")))
	}
	return db, query.MustUCQ("u4", mk(0), mk(1), mk(2), mk(3))
}

// TestMCUCQFourWayUnion exercises the deepest recursion so far: four
// disjuncts, so level 0 alone prepares 7 intersection CQs (2³−1) and the
// inclusion–exclusion signs must all line up.
func TestMCUCQFourWayUnion(t *testing.T) {
	db, u := fourWayFixture()
	m, err := New(db, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.EvaluateUCQ(db, u)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, oracle %d", m.Count(), len(want))
	}
	seen := make(map[string]bool)
	var got []relation.Tuple
	for j := int64(0); j < m.Count(); j++ {
		a, err := m.Access(j)
		if err != nil {
			t.Fatalf("Access(%d): %v", j, err)
		}
		if seen[a.Key()] {
			t.Fatalf("duplicate at %d", j)
		}
		seen[a.Key()] = true
		got = append(got, a)
	}
	if !naive.SameAnswerSet(got, want) {
		t.Fatal("4-way union wrong")
	}
}

func TestMCUCQEmptyDisjuncts(t *testing.T) {
	// First disjunct empty: phase 2 of Algorithm 7 carries everything.
	db := relation.NewDatabase()
	l := db.MustCreate("L", "o", "s")
	nat := db.MustCreate("N", "s", "m")
	for i := 0; i < 20; i++ {
		l.MustInsert(relation.Value(i), relation.Value(i%4))
	}
	for s := 0; s < 4; s++ {
		nat.MustInsert(relation.Value(s), relation.Value(s))
	}
	db.Add(nat.Filter("Nnone", func(t relation.Tuple) bool { return false }))
	db.Add(nat.Filter("Nall", func(t relation.Tuple) bool { return true }))
	q1 := query.MustCQ("q1", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("Nnone", query.V("s"), query.V("m")))
	q2 := query.MustCQ("q2", []string{"o", "s", "m"},
		query.NewAtom("L", query.V("o"), query.V("s")),
		query.NewAtom("Nall", query.V("s"), query.V("m")))

	for _, u := range []*query.UCQ{
		query.MustUCQ("emptyFirst", q1, q2),
		query.MustUCQ("emptySecond", q2, q1),
		query.MustUCQ("bothEmpty", q1, q1),
	} {
		m, err := New(db, u, Options{})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		want, _ := naive.EvaluateUCQ(db, u)
		if m.Count() != int64(len(want)) {
			t.Fatalf("%s: Count = %d, oracle %d", u.Name, m.Count(), len(want))
		}
		var got []relation.Tuple
		for j := int64(0); j < m.Count(); j++ {
			a, err := m.Access(j)
			if err != nil {
				t.Fatalf("%s: Access(%d): %v", u.Name, j, err)
			}
			got = append(got, a)
		}
		if !naive.SameAnswerSet(got, want) {
			t.Fatalf("%s: wrong answers", u.Name)
		}
	}
}

func TestMCUCQRejectsNonFreeConnexIntersection(t *testing.T) {
	// Example 5.1's union: Q1(x,y,z) :- R(x,y), S(y,z); Q2 :- S(y,z), T(x,z).
	// Each is free-connex but the intersection is the (cyclic) triangle
	// query, so the mc-UCQ construction must fail.
	db := relation.NewDatabase()
	db.MustCreate("R", "x", "y")
	db.MustCreate("S", "y", "z")
	db.MustCreate("T", "x", "z")
	q1 := query.MustCQ("q1", []string{"x", "y", "z"},
		query.NewAtom("R", query.V("x"), query.V("y")),
		query.NewAtom("S", query.V("y"), query.V("z")))
	q2 := query.MustCQ("q2", []string{"x", "y", "z"},
		query.NewAtom("S", query.V("y"), query.V("z")),
		query.NewAtom("T", query.V("x"), query.V("z")))
	u := query.MustUCQ("u", q1, q2)
	if _, err := New(db, u, Options{}); err == nil {
		t.Fatal("Example 5.1 union accepted by mc-UCQ construction")
	}
}

// TestFirstTestBuildsNothing: every disjunct and intersection index comes out
// of New with its node relations' membership indexes built, so the first
// Test on a fresh structure allocates nothing (no warm-up call: a lazily
// built index would show up here).
func TestFirstTestBuildsNothing(t *testing.T) {
	db := alignedDB(5, 60)
	m, err := New(db, alignedUCQ3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	answer, err := m.Access(m.Count() - 1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := m.Test(answer)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; !ok || n != 0 {
		t.Fatalf("first Test = %v with %d allocations, want true with 0", ok, n)
	}
}
