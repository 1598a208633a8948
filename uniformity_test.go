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
// exp.Uniformity uses, for a CQ, an mc-UCQ and a sharded CQ.
func TestShuffledUniformAtChunkEdges(t *testing.T) {
	// 96 answers each: the join of 12 R-tuples with 8 S-tuples apiece, and
	// the union of two 60-tuple relations that share 24.
	db := NewDatabase()
	r, s := db.MustCreate("R", "a", "b"), db.MustCreate("S", "b", "c")
	for a := 0; a < 12; a++ {
		r.MustInsert(Value(a), Value(a%4))
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
	union := MustUCQ("u",
		MustCQ("u1", []string{"x", "y"}, NewAtom("A", V("x"), V("y"))),
		MustCQ("u2", []string{"x", "y"}, NewAtom("B", V("x"), V("y"))))

	ranks := []int{0, 1, 2, 4, 63, 64}
	const answers, trials = 96, 4000
	for name, h := range map[string]*Handle{
		"cq":      mustOpen(t, db, join),
		"ucq":     mustOpen(t, db, union),
		"sharded": mustOpen(t, db, join, WithShards(3)),
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
