package renum

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func exampleDB() *Database {
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	r.MustInsert(1, 10)
	r.MustInsert(2, 10)
	r.MustInsert(3, 20)
	s.MustInsert(10, 100)
	s.MustInsert(10, 200)
	s.MustInsert(20, 300)
	return db
}

func chain() *CQ {
	return MustCQ("q", []string{"a", "b", "c"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")))
}

func TestPublicRandomAccess(t *testing.T) {
	db := exampleDB()
	ra := asParsed(t, db, chain())
	inv, in := mustInverter(t, ra), mustContainer(t, ra)
	if ra.Count() != 5 {
		t.Fatalf("Count = %d, want 5", ra.Count())
	}
	seen := map[string]bool{}
	for j := int64(0); j < ra.Count(); j++ {
		a, err := ra.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a.Key()] {
			t.Fatal("duplicate")
		}
		seen[a.Key()] = true
		jj, ok := inv.InvertedAccess(a)
		if !ok || jj != j {
			t.Fatal("inverted access mismatch")
		}
		if !in.Contains(a) {
			t.Fatal("Contains false for answer")
		}
	}
	if _, err := ra.Access(5); !IsOutOfBounds(err) {
		t.Fatalf("out-of-bounds err = %v", err)
	}
	h := ra.Head()
	if len(h) != 3 || h[0] != "a" {
		t.Fatalf("Head = %v", h)
	}
}

func TestPublicEnumeratorAndPermutation(t *testing.T) {
	db := exampleDB()
	ra := asParsed(t, db, chain())
	n := 0
	for _, err := range ra.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("enumerated %d", n)
	}
	p, err := ra.Permute(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	seen := map[string]bool{}
	for {
		a, ok := p.Next()
		if !ok {
			break
		}
		if seen[a.Key()] {
			t.Fatal("permutation repeated an answer")
		}
		seen[a.Key()] = true
		n++
	}
	if n != 5 {
		t.Fatalf("permuted %d", n)
	}
}

// TestZeroPermutationIsEmpty: a zero Permutation is an empty permutation
// through every method — Next as well as the NextN forms, which still report
// a cancelled context.
func TestZeroPermutationIsEmpty(t *testing.T) {
	var p Permutation
	if a, ok := p.Next(); ok || a != nil {
		t.Fatalf("zero Permutation: Next = %v, %v", a, ok)
	}
	if ts := p.NextN(3); len(ts) != 0 {
		t.Fatalf("zero Permutation: NextN(3) = %v", ts)
	}
	if ts := p.NextN(-1); ts != nil {
		t.Fatalf("zero Permutation: NextN(-1) = %v", ts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ts, err := p.NextNContext(ctx, 3); !errors.Is(err, context.Canceled) || ts != nil {
		t.Fatalf("zero Permutation: cancelled NextNContext = %v, %v", ts, err)
	}
}

func TestPublicClassifiers(t *testing.T) {
	q := chain()
	if !IsAcyclic(q) || !IsFreeConnex(q) {
		t.Fatal("chain misclassified")
	}
	proj := MustCQ("p", []string{"a", "c"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")))
	if !IsAcyclic(proj) || IsFreeConnex(proj) {
		t.Fatal("projected chain misclassified")
	}
	if _, err := Open(exampleDB(), proj); err == nil {
		t.Fatal("non-free-connex accepted")
	}
}

func TestPublicUnion(t *testing.T) {
	db := exampleDB()
	q1 := MustCQ("q1", []string{"b"}, NewAtom("R", V("a"), V("b")))
	q2 := MustCQ("q2", []string{"b"}, NewAtom("S", V("b"), V("c")))
	u := MustUCQ("u", q1, q2)

	want, err := EvaluateUCQ(db, u)
	if err != nil {
		t.Fatal(err)
	}

	ro, err := NewRandomOrderUnion(db, u, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	seen := map[string]bool{}
	for {
		a, ok := ro.Next()
		if !ok {
			break
		}
		if seen[a.Key()] {
			t.Fatal("union repeated")
		}
		seen[a.Key()] = true
		got++
	}
	if got != len(want) {
		t.Fatalf("union emitted %d, want %d", got, len(want))
	}
	_ = ro.Rejections()

	ua := asParsed(t, db, u)
	in := mustContainer(t, ua)
	if ua.Count() != int64(len(want)) {
		t.Fatalf("union handle Count = %d, want %d", ua.Count(), len(want))
	}
	for j := int64(0); j < ua.Count(); j++ {
		a, err := ua.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !in.Contains(a) {
			t.Fatal("Contains false")
		}
	}
	p, err := ua.Permute(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	if int64(n) != ua.Count() {
		t.Fatal("union permutation incomplete")
	}
}

func TestPublicEvaluateCyclicFallback(t *testing.T) {
	db := NewDatabase()
	r := db.MustCreate("R", "x", "y")
	s := db.MustCreate("S", "y", "z")
	u := db.MustCreate("T", "x", "z")
	r.MustInsert(1, 2)
	s.MustInsert(2, 3)
	u.MustInsert(1, 3)
	tri := MustCQ("tri", []string{"x", "y", "z"},
		NewAtom("R", V("x"), V("y")),
		NewAtom("S", V("y"), V("z")),
		NewAtom("T", V("x"), V("z")))
	if _, err := Open(db, tri); err == nil {
		t.Fatal("cyclic accepted by index")
	}
	ans, err := Evaluate(db, tri)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("triangle answers = %v", ans)
	}
}

func TestPublicPage(t *testing.T) {
	db := exampleDB()
	ra := asParsed(t, db, chain())
	// Count is 5; pages of 2: [0,1], [2,3], [4].
	var all []Tuple
	for off := int64(0); ; off += 2 {
		page, err := ra.Page(off, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
	}
	if len(all) != 5 {
		t.Fatalf("paged %d answers", len(all))
	}
	// Pages must agree with direct access.
	for j, tup := range all {
		want, _ := ra.Access(int64(j))
		if !tup.Equal(want) {
			t.Fatalf("page order mismatch at %d", j)
		}
	}
	if _, err := ra.Page(-1, 2); !IsOutOfBounds(err) {
		t.Fatal("negative offset accepted")
	}
	if _, err := ra.Page(0, -1); !IsOutOfBounds(err) {
		t.Fatal("negative limit accepted")
	}
	if page, err := ra.Page(99, 5); err != nil || page != nil {
		t.Fatal("past-the-end page must be empty")
	}
	if s, err := ra.Explain(); err != nil || s == "" {
		t.Fatalf("Explain = %q, %v", s, err)
	}
}

// TestPublicSampleK: distinct sampling of k answers is the first k steps of
// the random permutation, through the Sampler capability.
func TestPublicSampleK(t *testing.T) {
	db := exampleDB()
	ra := asParsed(t, db, chain())
	smp, in := mustSampler(t, ra), mustContainer(t, ra)
	if !smp.Distinct() {
		t.Fatal("a static CQ handle must sample without replacement")
	}
	rng := rand.New(rand.NewSource(6))
	got, err := smp.SampleN(3, rng)
	if err != nil || len(got) != 3 {
		t.Fatalf("SampleN(3) = %d answers, %v", len(got), err)
	}
	seen := map[string]bool{}
	for _, tup := range got {
		if seen[tup.Key()] {
			t.Fatal("SampleN repeated an answer")
		}
		seen[tup.Key()] = true
		if !in.Contains(tup) {
			t.Fatal("SampleN returned a non-answer")
		}
	}
	// The same seed through the cursor: k × Next is the k-sample.
	p, err := ra.Permute(rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range got {
		if a, ok := p.Next(); !ok || !a.Equal(want) {
			t.Fatalf("Permutation.Next #%d = %v, %v; SampleN drew %v", i, a, ok, want)
		}
	}
	// k beyond Count returns everything.
	all, err := smp.SampleN(100, rng)
	if err != nil || int64(len(all)) != ra.Count() {
		t.Fatalf("SampleN(100) = %d answers", len(all))
	}
	if _, err := smp.SampleN(-1, rng); !IsOutOfBounds(err) {
		t.Fatal("negative k accepted")
	}
	if zero, err := smp.SampleN(0, rng); err != nil || len(zero) != 0 {
		t.Fatal("SampleN(0) wrong")
	}
}

func TestPublicCanonicalOrder(t *testing.T) {
	// Same facts, two different insertion orders → identical enumerations
	// under the canonical index, (almost surely) different under the plain
	// index.
	build := func(perm []int) *Database {
		facts := [][2]Value{{1, 10}, {2, 10}, {3, 20}, {4, 20}, {5, 10}}
		db := NewDatabase()
		r := db.MustCreate("R", "a", "b")
		s := db.MustCreate("S", "b", "c")
		for _, i := range perm {
			r.MustInsert(facts[i][0], facts[i][1])
		}
		s.MustInsert(10, 100)
		s.MustInsert(20, 200)
		s.MustInsert(10, 300)
		return db
	}
	db1 := build([]int{0, 1, 2, 3, 4})
	db2 := build([]int{4, 2, 0, 3, 1})
	q := chain()

	ra1 := asParsed(t, db1, q, WithCanonical())
	ra2 := asParsed(t, db2, q, WithCanonical())
	if ra1.Count() != ra2.Count() {
		t.Fatal("counts differ")
	}
	for j := int64(0); j < ra1.Count(); j++ {
		a1, _ := ra1.Access(j)
		a2, _ := ra2.Access(j)
		if !a1.Equal(a2) {
			t.Fatalf("canonical order differs at %d: %v vs %v", j, a1, a2)
		}
	}
	// The plain index over db1 vs db2 differs somewhere (sanity that the
	// canonical option actually changes behaviour).
	p1 := asParsed(t, db1, q)
	p2 := asParsed(t, db2, q)
	same := true
	for j := int64(0); j < p1.Count(); j++ {
		a1, _ := p1.Access(j)
		a2, _ := p2.Access(j)
		if !a1.Equal(a2) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("plain index order did not depend on insertion order; canonical option is vacuous")
	}
}

// TestPublicOrderSpecLexicographic: under the canonical option, the
// enumeration order must be exactly the lexicographic order of the answers
// projected onto the index's OrderSpec (read white-box: the handle does not
// export it).
func TestPublicOrderSpecLexicographic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	u := db.MustCreate("U", "b", "d")
	for i := 0; i < 60; i++ {
		r.MustInsert(Value(rng.Intn(9)), Value(rng.Intn(4)))
		s.MustInsert(Value(rng.Intn(4)), Value(rng.Intn(9)))
		u.MustInsert(Value(rng.Intn(4)), Value(rng.Intn(9)))
	}
	q := MustCQ("q", []string{"a", "b", "c", "d"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")),
		NewAtom("U", V("b"), V("d")))
	ra := asParsed(t, db, q, WithCanonical())
	spec := ra.b.(cqBackend).c.Index.OrderSpec()
	if len(spec) != 4 {
		t.Fatalf("OrderSpec = %v", spec)
	}
	headPos := map[string]int{}
	for i, h := range q.Head {
		headPos[h] = i
	}
	project := func(tup Tuple) Tuple {
		out := make(Tuple, len(spec))
		for i, v := range spec {
			out[i] = tup[headPos[v]]
		}
		return out
	}
	var prev Tuple
	for j := int64(0); j < ra.Count(); j++ {
		a, err := ra.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		cur := project(a)
		if prev != nil {
			for k := range cur {
				if cur[k] != prev[k] {
					if cur[k] < prev[k] {
						t.Fatalf("order regression at %d: %v after %v (spec %v)", j, cur, prev, spec)
					}
					break
				}
			}
		}
		prev = cur
	}
}

func TestPublicConstants(t *testing.T) {
	db := exampleDB()
	q := MustCQ("q", []string{"b"}, NewAtom("R", C(1), V("b")))
	ra := asParsed(t, db, q)
	if ra.Count() != 1 {
		t.Fatalf("Count = %d", ra.Count())
	}
	a, _ := ra.Access(0)
	if a[0] != 10 {
		t.Fatalf("answer = %v", a)
	}
}
