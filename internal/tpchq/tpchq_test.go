package tpchq

import (
	"math/rand"
	"testing"

	"repro/internal/cqenum"
	"repro/internal/hypergraph"
	"repro/internal/mcucq"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/tpch"
	"repro/internal/unionenum"
)

func smallDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := PrepareDerived(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAllCQsAreFreeConnex(t *testing.T) {
	for _, q := range CQs() {
		if !hypergraph.IsFreeConnex(q) {
			t.Errorf("%s is not free-connex", q.Name)
		}
	}
	for _, q := range []*query.CQ{QS7(), QC7(), QN2(), QP2(), QS2(), QA(), QE()} {
		if !hypergraph.IsFreeConnex(q) {
			t.Errorf("%s is not free-connex", q.Name)
		}
	}
}

func TestCQsMatchOracle(t *testing.T) {
	db := smallDB(t)
	for _, q := range CQs() {
		c, err := cqenum.Prepare(db, q, reduce.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := naive.Evaluate(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if c.Count() != int64(len(want)) {
			t.Fatalf("%s: Count = %d, oracle = %d", q.Name, c.Count(), len(want))
		}
		if c.Count() == 0 {
			t.Fatalf("%s: empty result at this scale; test is vacuous", q.Name)
		}
		// Spot-check membership of random accesses.
		rng := rand.New(rand.NewSource(1))
		oracle := make(map[string]bool, len(want))
		for _, a := range want {
			oracle[a.Key()] = true
		}
		for i := 0; i < 50; i++ {
			j := rng.Int63n(c.Count())
			a, err := c.Index.Access(j)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle[a.Key()] {
				t.Fatalf("%s: Access(%d) = %v not in oracle", q.Name, j, a)
			}
			if jj, ok := c.Index.InvertedAccess(a); !ok || jj != j {
				t.Fatalf("%s: inverted access mismatch at %d", q.Name, j)
			}
		}
	}
}

func TestUCQsMatchOracleViaREnumUCQ(t *testing.T) {
	db := smallDB(t)
	for _, u := range UCQs() {
		e, err := unionenum.NewFromUCQ(db, u, rand.New(rand.NewSource(3)), reduce.Options{})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		want, err := naive.EvaluateUCQ(db, u)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		var got []relation.Tuple
		for {
			a, ok := e.Next()
			if !ok {
				break
			}
			if seen[a.Key()] {
				t.Fatalf("%s: duplicate", u.Name)
			}
			seen[a.Key()] = true
			got = append(got, a)
		}
		if !naive.SameAnswerSet(got, want) {
			t.Fatalf("%s: got %d, oracle %d", u.Name, len(got), len(want))
		}
	}
}

func TestUCQsAreMutuallyCompatible(t *testing.T) {
	db := smallDB(t)
	for _, u := range UCQs() {
		m, err := mcucq.New(db, u, mcucq.Options{})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		want, err := naive.EvaluateUCQ(db, u)
		if err != nil {
			t.Fatal(err)
		}
		if m.Count() != int64(len(want)) {
			t.Fatalf("%s: Count = %d, oracle = %d", u.Name, m.Count(), len(want))
		}
		// Full bijection check.
		seen := make(map[string]bool)
		var got []relation.Tuple
		for j := int64(0); j < m.Count(); j++ {
			a, err := m.Access(j)
			if err != nil {
				t.Fatalf("%s: Access(%d): %v", u.Name, j, err)
			}
			if seen[a.Key()] {
				t.Fatalf("%s: duplicate at %d", u.Name, j)
			}
			seen[a.Key()] = true
			got = append(got, a)
		}
		if !naive.SameAnswerSet(got, want) {
			t.Fatalf("%s: wrong answer set", u.Name)
		}
	}
}

func TestUnionAEIsDisjoint(t *testing.T) {
	db := smallDB(t)
	qa, err := naive.Evaluate(db, QA())
	if err != nil {
		t.Fatal(err)
	}
	qe, err := naive.Evaluate(db, QE())
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, a := range qa {
		keys[a.Key()] = true
	}
	for _, a := range qe {
		if keys[a.Key()] {
			t.Fatal("QA and QE overlap")
		}
	}
	if len(qa) == 0 || len(qe) == 0 {
		t.Fatal("degenerate: a disjunct is empty")
	}
}

func TestUnionQ7Overlaps(t *testing.T) {
	db := smallDB(t)
	u := UnionQ7()
	qi, err := u.Intersection("QS7∩QC7", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := naive.Evaluate(db, qi)
	if err != nil {
		t.Fatal(err)
	}
	if len(inter) == 0 {
		t.Fatal("QS7 ∩ QC7 empty at this scale; rejection experiments would be vacuous")
	}
}

func TestPrepareDerivedMissingTables(t *testing.T) {
	db := relation.NewDatabase()
	if err := PrepareDerived(db); err == nil {
		t.Fatal("missing nation accepted")
	}
}

func TestSelectionsSelect(t *testing.T) {
	db := smallDB(t)
	n0, _ := db.Relation("nation0")
	if n0.Len() != 1 || n0.Tuple(0)[0] != 0 {
		t.Fatal("nation0 wrong")
	}
	us, _ := db.Relation("nation_us")
	if us.Len() != 1 || us.Tuple(0)[0] != relation.Value(tpch.NationKeyUS) {
		t.Fatal("nation_us wrong")
	}
	pe, _ := db.Relation("part_even")
	for _, tu := range pe.Tuples() {
		if tu[0]%2 != 0 {
			t.Fatal("part_even has odd key")
		}
	}
	kn, _ := db.Relation("nation_kn")
	if kn.Len() != 25 || kn.Arity() != 2 {
		t.Fatal("nation_kn wrong")
	}
}
