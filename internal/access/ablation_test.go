package access

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/tpch"
	"repro/internal/tpchq"
)

// AccessLinear is Access with the in-bucket binary search replaced by a
// linear scan. It exists solely for the ablation benchmark below, which
// quantifies the log-factor of Theorem 4.3: on large buckets the scan makes
// the per-access cost linear in the bucket size.
func (idx *Index) AccessLinear(j int64) (relation.Tuple, error) {
	if j < 0 || j >= idx.count {
		return nil, ErrOutOfBounds
	}
	answer := make(relation.Tuple, len(idx.head))
	idx.subtreeAccessLinear(idx.root, 0, j, answer)
	return answer, nil
}

func (idx *Index) subtreeAccessLinear(n *node, g uint32, j int64, answer relation.Tuple) {
	i := n.bucketOff[g] + int32(j) // a leaf: every weight is 1
	if !n.leaf() {
		// The last slot whose start is ≤ j.
		for i = n.bucketOff[g]; i+1 < n.bucketOff[g+1] && n.start[i+1] <= j; i++ {
		}
	}
	for k, col := range n.outCols {
		answer[col] = n.outVals[k][i]
	}
	if n.leaf() {
		return
	}
	rem := j - n.start[i]
	for ci := len(n.children) - 1; ci >= 0; ci-- {
		c := n.children[ci]
		cg := uint32(n.childGroup[ci][i])
		ct := c.bucketTotal(cg)
		ji := rem % ct
		rem /= ct
		idx.subtreeAccessLinear(c, cg, ji, answer)
	}
}

// TestAccessLinearAgreesWithAccess: the ablation variant must return exactly
// the same answers as the binary-search Access for every index.
func TestAccessLinearAgreesWithAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	u := db.MustCreate("U", "b", "d")
	for i := 0; i < 80; i++ {
		r.MustInsert(relation.Value(rng.Intn(15)), relation.Value(rng.Intn(6)))
		s.MustInsert(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(15)))
		u.MustInsert(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(15)))
	}
	q := query.MustCQ("q", []string{"a", "b", "c", "d"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")),
		query.NewAtom("U", query.V("b"), query.V("d")))
	idx := buildIndex(t, db, q)
	if idx.Count() == 0 {
		t.Skip("degenerate instance")
	}
	for j := int64(0); j < idx.Count(); j++ {
		a, err1 := idx.Access(j)
		b, err2 := idx.AccessLinear(j)
		if err1 != nil || err2 != nil || !a.Equal(b) {
			t.Fatalf("mismatch at %d: %v vs %v (%v, %v)", j, a, b, err1, err2)
		}
	}
	if _, err := idx.AccessLinear(-1); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("negative accepted")
	}
	if _, err := idx.AccessLinear(idx.Count()); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("count accepted")
	}
}

// BenchmarkAblationBucketSearch: binary search vs linear scan inside buckets
// during Access, on TPC-H Q3 at scale factor 0.01 — its root bucket holds
// every customer, which is where the scan pays.
func BenchmarkAblationBucketSearch(b *testing.B) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fj, err := reduce.BuildFullJoin(db, tpchq.Q3(), reduce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := New(fj)
	if err != nil {
		b.Fatal(err)
	}
	n := idx.Count()
	rng := rand.New(rand.NewSource(2))
	b.Run("BinarySearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := idx.Access(rng.Int63n(n)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LinearScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := idx.AccessLinear(rng.Int63n(n)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
