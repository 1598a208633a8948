package renum

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// TestShuffledUniformAtChunkEdges: Handle.Shuffled draws its positions in
// chunks of 1, 1, 2, 4, 8, 16, 32, 64, so ranks 0, 1, 2, 4 and 64 are each
// the first answer of a chunk and rank 63 the last of one. Whatever the
// chunking does at those seams, the answer at each rank must stay uniform
// over the answer set: a chi-square test per rank, at the 6σ limit
// exp.Uniformity uses, for a CQ, an mc-UCQ and a shard (a SliceView window).
func TestShuffledUniformAtChunkEdges(t *testing.T) {
	// 96 answers each: the join of 12 R-tuples with 8 S-tuples apiece, the
	// union of two 60-tuple relations that share 24, and the middle third of
	// the 288-answer join of 36 W-tuples with S.
	db := NewDatabase()
	r, w, s := db.MustCreate("R", "a", "b"), db.MustCreate("W", "a", "b"), db.MustCreate("S", "b", "c")
	for a := 0; a < 36; a++ {
		if a < 12 {
			r.MustInsert(Value(a), Value(a%4))
		}
		w.MustInsert(Value(a), Value(a%4))
	}
	for b := 0; b < 4; b++ {
		for c := 0; c < 8; c++ {
			s.MustInsert(Value(b), Value(10*b+c))
		}
	}
	ua, ub := db.MustCreate("A", "x", "y"), db.MustCreate("B", "x", "y")
	for i := 0; i < 96; i++ {
		if i < 60 {
			ua.MustInsert(Value(i%12), Value(i/12))
		}
		if i >= 36 {
			ub.MustInsert(Value(i%12), Value(i/12))
		}
	}
	join := MustCQ("q", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("S", V("b"), V("c")))
	wide := MustCQ("w", []string{"a", "b", "c"}, NewAtom("W", V("a"), V("b")), NewAtom("S", V("b"), V("c")))
	shard, err := SliceView(mustOpen(t, db, wide), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	union := MustUCQ("u",
		MustCQ("u1", []string{"x", "y"}, NewAtom("A", V("x"), V("y"))),
		MustCQ("u2", []string{"x", "y"}, NewAtom("B", V("x"), V("y"))))

	ranks := []int{0, 1, 2, 4, 63, 64}
	const answers, trials = 96, 4000
	for name, h := range map[string]*Handle{
		"cq":    mustOpen(t, db, join),
		"ucq":   mustOpen(t, db, union),
		"shard": shard,
	} {
		if h.Count() != answers {
			t.Fatalf("%s: fixture has %d answers, want %d", name, h.Count(), answers)
		}
		id := make(map[string]int, answers) // answer → its number
		for tu, err := range h.All() {
			if err != nil {
				t.Fatal(err)
			}
			id[tu.Key()] = len(id)
		}
		counts := make([][]int, len(ranks))
		for i := range counts {
			counts[i] = make([]int, answers)
		}
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < trials; trial++ {
			rank, next := 0, 0
			for tu, err := range h.Shuffled(rng) {
				if err != nil {
					t.Fatal(err)
				}
				if rank == ranks[next] {
					counts[next][id[tu.Key()]]++
					if next++; next == len(ranks) {
						break
					}
				}
				rank++
			}
		}
		for i, rank := range ranks {
			stat, df := stats.ChiSquareUniform(counts[i])
			if limit := float64(df) + 6*math.Sqrt(2*float64(df)); stat > limit {
				t.Errorf("%s: answer at rank %d is not uniform: chi-square %.1f over %d degrees of freedom, limit %.1f", name, rank, stat, df, limit)
			}
		}
	}
}

// multiplyingUnion is a union whose intersection has more answers than its
// index has tuples, so that its rank fence is built at a stride above 1: u1
// and u2 join the same 12 R-tuples (4 b-values, 3 each) with 8 S-tuples per
// b-value, 6 of each 8 shared. 96 answers each, 72 in both, 120 in the union.
func multiplyingUnion(t *testing.T) (*Database, *UCQ, *Handle) {
	t.Helper()
	db := NewDatabase()
	r, s1, s2 := db.MustCreate("R", "a", "b"), db.MustCreate("S1", "b", "c"), db.MustCreate("S2", "b", "c")
	for a := 0; a < 12; a++ {
		r.MustInsert(Value(a), Value(a%4))
	}
	for b := 0; b < 4; b++ {
		for c := 0; c < 10; c++ {
			if c < 8 {
				s1.MustInsert(Value(b), Value(10*b+c))
			}
			if c >= 2 {
				s2.MustInsert(Value(b), Value(10*b+c))
			}
		}
	}
	union := MustUCQ("u",
		MustCQ("u1", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("S1", V("b"), V("c"))),
		MustCQ("u2", []string{"a", "b", "c"}, NewAtom("R", V("a"), V("b")), NewAtom("S2", V("b"), V("c"))))
	h := mustOpen(t, db, union)
	if inter := h.b.(uaBackend).m.Indexes()[2]; h.Count() != 120 || inter.Count() != 72 || inter.Count() <= inter.Tuples() {
		t.Fatalf("%d answers, %d in the intersection over %d tuples: its fence would have stride 1", h.Count(), inter.Count(), inter.Tuples())
	}
	return db, union, h
}

// TestUnionDrawsUniform extends the check to the two union algorithms'
// rewrites. Algorithm 5 (NewRandomOrderUnion) carves its answers from one
// array per 64, so ranks 63, 64 and 65 straddle the first seam; the first
// answer is the paper's headline property. The mc-UCQ is one whose
// intersection has more answers than its index has tuples — a join that
// multiplies — so its rank fence has a stride above 1 and Shuffled's probes
// finish their Compute-k searches by probing inside a window.
func TestUnionDrawsUniform(t *testing.T) {
	db, union, h := multiplyingUnion(t)
	const answers, trials = 120, 4000
	id := make(map[string]int, answers) // answer → its number
	for tu, err := range h.All() {
		if err != nil {
			t.Fatal(err)
		}
		id[tu.Key()] = len(id)
	}

	// uniformAt draws `trials` fresh random orders — order hands its answers
	// to visit until visit declines — and tests the answer at each of the
	// given ranks for uniformity over the answer set.
	uniformAt := func(name string, ranks []int, order func(rng *rand.Rand, visit func(Tuple) bool)) {
		counts := make([][]int, len(ranks))
		for i := range counts {
			counts[i] = make([]int, answers)
		}
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < trials; trial++ {
			rank, at := 0, 0
			order(rng, func(tu Tuple) bool {
				if rank == ranks[at] {
					counts[at][id[tu.Key()]]++
					at++
				}
				rank++
				return at < len(ranks)
			})
			if at < len(ranks) {
				t.Fatalf("%s: order ended after %d answers", name, rank)
			}
		}
		for i, rank := range ranks {
			stat, df := stats.ChiSquareUniform(counts[i])
			if limit := float64(df) + 6*math.Sqrt(2*float64(df)); stat > limit {
				t.Errorf("%s: answer at rank %d is not uniform: chi-square %.1f over %d degrees of freedom, limit %.1f", name, rank, stat, df, limit)
			}
		}
	}

	uniformAt("Algorithm 5", []int{0, 63, 64, 65}, func(rng *rand.Rand, visit func(Tuple) bool) {
		e, err := NewRandomOrderUnion(db, union, rng)
		if err != nil {
			t.Fatal(err)
		}
		for tu, ok := e.Next(); ok && visit(tu); tu, ok = e.Next() {
		}
	})
	uniformAt("mc-UCQ at stride 2", []int{0, 1, 2, 4, 63, 64}, func(rng *rand.Rand, visit func(Tuple) bool) {
		for tu, err := range h.Shuffled(rng) {
			if err != nil {
				t.Fatal(err)
			}
			if !visit(tu) {
				break
			}
		}
	})
}
