package access

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
)

// buildIndex reduces q over db and builds the index.
func buildIndex(t *testing.T, db *relation.Database, q *query.CQ) *Index {
	t.Helper()
	fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(fj)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestExample44 reproduces Example 4.4 of the paper exactly: the weights and
// start indexes of the worked table, the result of Access(13), and the
// inverted access round trip. (Note: the paper's prose writes R2(v,y),
// R3(w,z) but its data table joins R2 on w and R3 on x; we follow the data.)
func TestExample44(t *testing.T) {
	db := relation.NewDatabase()
	// Constants: a1=1 a2=2, b1=11 b2=12, c1=21 c2=22, d1..d3=31..33, e1..e4=41..44.
	r1 := db.MustCreate("R1", "v", "w", "x")
	r1.MustInsert(1, 11, 21)
	r1.MustInsert(1, 11, 22)
	r1.MustInsert(2, 12, 21)
	r1.MustInsert(2, 12, 22)
	r2 := db.MustCreate("R2", "w", "y")
	r2.MustInsert(11, 31)
	r2.MustInsert(11, 32)
	r2.MustInsert(12, 32)
	r2.MustInsert(12, 33)
	r3 := db.MustCreate("R3", "x", "z")
	r3.MustInsert(21, 41)
	r3.MustInsert(21, 42)
	r3.MustInsert(21, 43)
	r3.MustInsert(22, 44)

	q := query.MustCQ("Q", []string{"v", "w", "x", "y", "z"},
		query.NewAtom("R1", query.V("v"), query.V("w"), query.V("x")),
		query.NewAtom("R2", query.V("w"), query.V("y")),
		query.NewAtom("R3", query.V("x"), query.V("z")))
	idx := buildIndex(t, db, q)

	if idx.Count() != 16 {
		t.Fatalf("Count = %d, want 16 (6+2+6+2)", idx.Count())
	}

	// Access(13) = (a2, b2, c1, d3, e3) per the paper.
	got, err := idx.Access(13)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.Tuple{2, 12, 21, 33, 43}
	if !got.Equal(want) {
		t.Fatalf("Access(13) = %v, want %v", got, want)
	}

	// InvertedAccess(a2,b2,c1,d3,e3) = 13 per the paper.
	j, ok := idx.InvertedAccess(want)
	if !ok || j != 13 {
		t.Fatalf("InvertedAccess = %d,%v, want 13,true", j, ok)
	}

	// The paper's startIndex table for R1: 0, 6, 8, 14, and weights 6, 2, 6,
	// 2. The root has a single bucket (group 0), so its slots are the first
	// bucketLen(0) entries of the flattened start array.
	wantStarts := []int64{0, 6, 8, 14}
	if idx.root.grouping.NumGroups() != 1 || idx.root.bucketLen(0) != 4 {
		t.Fatalf("root bucket has %d tuples in %d groups", idx.root.bucketLen(0), idx.root.grouping.NumGroups())
	}
	wantWeights := []int64{6, 2, 6, 2}
	for i := range wantStarts {
		lo, hi := idx.root.slotSpan(0, int32(i))
		if lo != wantStarts[i] || hi-lo != wantWeights[i] {
			t.Fatalf("slot %d: startIndex %d, weight %d; want %d, %d", i, lo, hi-lo, wantStarts[i], wantWeights[i])
		}
	}
}

func TestAccessOutOfBounds(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "x")
	r.MustInsert(1)
	q := query.MustCQ("q", []string{"x"}, query.NewAtom("R", query.V("x")))
	idx := buildIndex(t, db, q)
	if _, err := idx.Access(-1); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("negative index accepted")
	}
	if _, err := idx.Access(1); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("index == count accepted")
	}
	if _, err := idx.Access(0); err != nil {
		t.Fatal(err)
	}
	var buf relation.Tuple = make(relation.Tuple, 1)
	if err := idx.AccessInto(5, buf); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("AccessInto out of bounds accepted")
	}
	if err := idx.AccessInto(0, buf); err != nil || buf[0] != 1 {
		t.Fatal("AccessInto failed")
	}
}

// TestAccessBijection checks on random databases that Access enumerates
// exactly Q(D), each answer exactly once, and that InvertedAccess is its
// exact inverse.
func TestAccessBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []*query.CQ{
		query.MustCQ("full-chain", []string{"a", "b", "c", "d"},
			query.NewAtom("R", query.V("a"), query.V("b")),
			query.NewAtom("S", query.V("b"), query.V("c")),
			query.NewAtom("U", query.V("c"), query.V("d"))),
		query.MustCQ("proj-chain", []string{"a", "b"},
			query.NewAtom("R", query.V("a"), query.V("b")),
			query.NewAtom("S", query.V("b"), query.V("c")),
			query.NewAtom("U", query.V("c"), query.V("d"))),
		query.MustCQ("star", []string{"a", "b", "c"},
			query.NewAtom("R", query.V("a"), query.V("b")),
			query.NewAtom("S", query.V("a"), query.V("c")),
			query.NewAtom("U", query.V("a"), query.V("d"))),
	}
	for iter := 0; iter < 20; iter++ {
		db := relation.NewDatabase()
		for _, name := range []string{"R", "S", "U"} {
			re := db.MustCreate(name, name+"1", name+"2")
			n := 5 + rng.Intn(50)
			for i := 0; i < n; i++ {
				re.MustInsert(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
			}
		}
		for _, q := range queries {
			idx := buildIndex(t, db, q)
			want, err := naive.Evaluate(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if idx.Count() != int64(len(want)) {
				t.Fatalf("%s: Count = %d, oracle = %d", q.Name, idx.Count(), len(want))
			}
			var got []relation.Tuple
			seen := make(map[string]bool)
			for j := int64(0); j < idx.Count(); j++ {
				a, err := idx.Access(j)
				if err != nil {
					t.Fatalf("%s: Access(%d): %v", q.Name, j, err)
				}
				k := a.Key()
				if seen[k] {
					t.Fatalf("%s: duplicate answer at %d", q.Name, j)
				}
				seen[k] = true
				got = append(got, a)
				// Inverse property.
				jj, ok := idx.InvertedAccess(a)
				if !ok || jj != j {
					t.Fatalf("%s: InvertedAccess(Access(%d)) = %d,%v", q.Name, j, jj, ok)
				}
			}
			if !naive.SameAnswerSet(got, want) {
				t.Fatalf("%s: answer sets differ", q.Name)
			}
			// Non-answers must be rejected.
			for k := 0; k < 20; k++ {
				fake := make(relation.Tuple, len(q.Head))
				for i := range fake {
					fake[i] = relation.Value(rng.Intn(12))
				}
				if _, ok := idx.InvertedAccess(fake); ok != seen[fake.Key()] {
					t.Fatalf("%s: InvertedAccess membership wrong for %v", q.Name, fake)
				}
			}
		}
	}
}

// TestAccessOrderMatchesFullJoinAnswers pins the enumeration order to the
// deterministic backtracking order of FullJoin.Answers (the mc-UCQ
// compatibility construction relies on this order being structural).
func TestAccessOrderMatchesFullJoinAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := relation.NewDatabase()
	for _, name := range []string{"R", "S", "U"} {
		re := db.MustCreate(name, name+"1", name+"2")
		for i := 0; i < 40; i++ {
			re.MustInsert(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
		}
	}
	q := query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")),
		query.NewAtom("U", query.V("b"), query.V("d")))
	fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(fj)
	if err != nil {
		t.Fatal(err)
	}
	ordered := fj.Answers()
	if int64(len(ordered)) != idx.Count() {
		t.Fatalf("count mismatch: %d vs %d", len(ordered), idx.Count())
	}
	for j, want := range ordered {
		got, err := idx.Access(int64(j))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("order mismatch at %d: access %v, backtrack %v", j, got, want)
		}
	}
}

func TestIndexEmptyResult(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "x", "y")
	db.MustCreate("S", "y", "z")
	r.MustInsert(1, 2)
	q := query.MustCQ("q", []string{"x", "y", "z"},
		query.NewAtom("R", query.V("x"), query.V("y")),
		query.NewAtom("S", query.V("y"), query.V("z")))
	idx := buildIndex(t, db, q)
	if idx.Count() != 0 {
		t.Fatalf("Count = %d", idx.Count())
	}
	if _, err := idx.Access(0); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("Access on empty result succeeded")
	}
	if _, ok := idx.InvertedAccess(relation.Tuple{1, 2, 3}); ok {
		t.Fatal("InvertedAccess on empty result succeeded")
	}
	if _, ok := idx.SampleEW(rand.New(rand.NewSource(1))); ok {
		t.Fatal("SampleEW on empty result succeeded")
	}
}

func TestIndexBooleanQuery(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "x")
	r.MustInsert(5)
	q := query.MustCQ("q", nil, query.NewAtom("R", query.V("x")))
	idx := buildIndex(t, db, q)
	if idx.Count() != 1 {
		t.Fatalf("Count = %d", idx.Count())
	}
	a, err := idx.Access(0)
	if err != nil || len(a) != 0 {
		t.Fatalf("Access(0) = %v, %v", a, err)
	}
	j, ok := idx.InvertedAccess(relation.Tuple{})
	if !ok || j != 0 {
		t.Fatal("InvertedAccess of empty tuple failed")
	}
}

func TestInvertedAccessWrongArity(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "x")
	r.MustInsert(1)
	q := query.MustCQ("q", []string{"x"}, query.NewAtom("R", query.V("x")))
	idx := buildIndex(t, db, q)
	if _, ok := idx.InvertedAccess(relation.Tuple{1, 2}); ok {
		t.Fatal("wrong arity accepted")
	}
	if !idx.Contains(relation.Tuple{1}) || idx.Contains(relation.Tuple{9}) {
		t.Fatal("Contains wrong")
	}
}

// chiSquareUniform returns the chi-square statistic of observed counts
// against a uniform distribution over k categories.
func chiSquareUniform(counts []int, total int) float64 {
	k := len(counts)
	expected := float64(total) / float64(k)
	stat := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat
}

// testSamplerUniform draws from a sampler and checks the answer distribution
// is plausibly uniform (loose chi-square bound: mean k-1, std sqrt(2(k-1))).
func testSamplerUniform(t *testing.T, idx *Index, name string, trial func(*rand.Rand) (relation.Tuple, bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	n := int(idx.Count())
	counts := make([]int, n)
	draws := 400 * n
	got := 0
	for i := 0; i < draws*100 && got < draws; i++ {
		a, ok := trial(rng)
		if !ok {
			continue
		}
		j, ok := idx.InvertedAccess(a)
		if !ok {
			t.Fatalf("%s produced a non-answer %v", name, a)
		}
		counts[j]++
		got++
	}
	if got < draws {
		t.Fatalf("%s rejected too often (%d/%d)", name, got, draws)
	}
	stat := chiSquareUniform(counts, draws)
	df := float64(n - 1)
	limit := df + 6*math.Sqrt(2*df) // ~6 sigma
	if stat > limit {
		t.Fatalf("%s: chi-square %.1f exceeds %.1f (df=%v): not uniform", name, stat, limit, df)
	}
}

// baselineTrials returns idx's four baseline samplers as one-trial draws,
// the EO and OE trials bound to idx's BaselineBounds.
func baselineTrials(idx *Index) map[string]func(*rand.Rand) (relation.Tuple, bool) {
	b := idx.BaselineBounds()
	return map[string]func(*rand.Rand) (relation.Tuple, bool){
		"EW": idx.SampleEW,
		"EO": func(rng *rand.Rand) (relation.Tuple, bool) { return idx.SampleEOTrial(rng, b) },
		"OE": func(rng *rand.Rand) (relation.Tuple, bool) { return idx.SampleOETrial(rng, b) },
		"RS": idx.SampleRSTrial,
	}
}

func TestSamplersUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	// Skewed: value 0 has high fanout.
	for i := 0; i < 12; i++ {
		r.MustInsert(relation.Value(i), relation.Value(rng.Intn(3)))
	}
	for i := 0; i < 12; i++ {
		s.MustInsert(relation.Value(rng.Intn(3)), relation.Value(i))
	}
	q := query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	idx := buildIndex(t, db, q)
	if idx.Count() == 0 {
		t.Skip("degenerate instance")
	}
	for name, trial := range baselineTrials(idx) {
		testSamplerUniform(t, idx, name, trial)
	}
}

func TestSamplersMatchAnswerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < 30; i++ {
		r.MustInsert(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(5)))
		s.MustInsert(relation.Value(rng.Intn(5)), relation.Value(rng.Intn(10)))
	}
	q := query.MustCQ("q", []string{"a", "b", "c"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")))
	idx := buildIndex(t, db, q)
	for name, trial := range baselineTrials(idx) {
		for i := 0; i < 500; i++ {
			a, ok := trial(rng)
			if !ok {
				continue
			}
			if !idx.Contains(a) {
				t.Fatalf("%s produced non-answer %v", name, a)
			}
		}
	}
}

func TestHeadExposed(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "x", "y")
	r.MustInsert(1, 2)
	q := query.MustCQ("q", []string{"y", "x"}, query.NewAtom("R", query.V("x"), query.V("y")))
	idx := buildIndex(t, db, q)
	h := idx.Head()
	if len(h) != 2 || h[0] != "y" || h[1] != "x" {
		t.Fatalf("Head = %v", h)
	}
	// Output order must follow the head, not the relation schema.
	a, _ := idx.Access(0)
	if a[0] != 2 || a[1] != 1 {
		t.Fatalf("Access respects head order: %v", a)
	}
}

// sharedKeyStar builds m binary relations Ri(k, vi) of n tuples each, all on
// the single key k = 0, and the full star query over them: n^m answers.
func sharedKeyStar(m, n int) (*relation.Database, *query.CQ) {
	db := relation.NewDatabase()
	head := []string{"k"}
	var body []query.Atom
	for i := 0; i < m; i++ {
		name, v := "R"+string(rune('0'+i)), "v"+string(rune('0'+i))
		r := db.MustCreate(name, "k", v)
		for j := 0; j < n; j++ {
			r.MustInsert(0, relation.Value(j))
		}
		head = append(head, v)
		body = append(body, query.NewAtom(name, query.V("k"), query.V(v)))
	}
	return db, query.MustCQ("star", head, body...)
}

// TestCountOverflowIsAnError: a join with more than 2^63-1 answers must fail
// the build with ErrCountOverflow instead of reporting a wrapped (negative)
// count. Five relations of 8192 tuples on one key have 8192^5 = 2^65
// answers: every root weight (2^52) fits and their sum does not. Six push
// the weight product itself (2^65) over. Four (2^52 answers) still build.
func TestCountOverflowIsAnError(t *testing.T) {
	for _, tc := range []struct {
		m        int
		overflow bool
	}{{4, false}, {5, true}, {6, true}} {
		db, q := sharedKeyStar(tc.m, 8192)
		for _, workers := range []int{1, 4} {
			fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
			if err != nil {
				t.Fatal(err)
			}
			idx, err := NewWithOptions(fj, BuildOptions{Workers: workers, SerialThreshold: 1})
			if !tc.overflow {
				if err != nil || idx.Count() != 1<<52 {
					t.Fatalf("m=%d workers=%d: count %v, err %v; want 2^52", tc.m, workers, idx, err)
				}
				continue
			}
			if !errors.Is(err, ErrCountOverflow) {
				t.Fatalf("m=%d workers=%d: err = %v, want ErrCountOverflow", tc.m, workers, err)
			}
		}
	}
}

// TestZeroWeightBeatsOverflow: with the full reduction skipped, a tuple
// whose last child has no match weighs zero even when the product of the
// children before it would overflow — that is no overflow.
func TestZeroWeightBeatsOverflow(t *testing.T) {
	db, q := sharedKeyStar(6, 8192)
	db.MustCreate("R5", "k", "v5") // R5 := ∅
	fj, err := reduce.BuildFullJoin(db, q, reduce.Options{SkipFullReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(fj)
	if err != nil || idx.Count() != 0 {
		t.Fatalf("count %v, err %v; want an empty index", idx, err)
	}
}
