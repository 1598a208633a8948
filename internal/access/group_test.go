package access

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/synth"
	"repro/internal/tpch"
	"repro/internal/tpchq"
)

// groupProbeSizes straddle the group size (16), the streamed-batch size of
// the server (64) and the serial threshold of AccessBatch (256).
var groupProbeSizes = []int{1, 15, 16, 17, 64, 255, 256, 1000}

// checkGroupProbe holds the batched forms of idx — which descend the tree a
// group of probes at a time — against the single probe, position by
// position: on every position when the index is small, and on random
// batches of every size in groupProbeSizes, with duplicates and both ends.
func checkGroupProbe(t *testing.T, idx *Index) {
	t.Helper()
	n := idx.Count()
	if n == 0 {
		t.Fatal("degenerate fixture: no answers")
	}
	check := func(js []int64) {
		t.Helper()
		got, err := idx.AccessBatch(js, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]relation.Tuple, len(js))
		for i := range rows {
			rows[i] = make(relation.Tuple, len(idx.Head()))
		}
		if err := idx.AccessBatchInto(js, rows); err != nil {
			t.Fatal(err)
		}
		for i, j := range js {
			want, err := idx.Access(j)
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Equal(want) || !rows[i].Equal(want) {
				t.Fatalf("batch of %d, slot %d (j=%d): AccessBatch %v, AccessBatchInto %v, Access %v", len(js), i, j, got[i], rows[i], want)
			}
		}
	}
	if n <= 20000 {
		all := make([]int64, n)
		for j := range all {
			all[j] = int64(j)
		}
		check(all)
	}
	rng := rand.New(rand.NewSource(n))
	for _, size := range groupProbeSizes {
		js := make([]int64, size)
		for i := range js {
			js[i] = rng.Int63n(n)
		}
		js[0] = n - 1
		js[size/2] = 0
		js[size-1] = js[size/3] // a duplicate, in another group when size allows
		check(js)
	}
}

func maxFanOut(idx *Index) int {
	m := 0
	for _, n := range idx.nodes {
		m = max(m, len(n.children))
	}
	return m
}

func TestGroupProbeMatchesSingle(t *testing.T) {
	t.Run("tpch", func(t *testing.T) {
		db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.004, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := tpchq.PrepareDerived(db); err != nil {
			t.Fatal(err)
		}
		qs := tpchq.CQs()
		for _, u := range tpchq.UCQs() {
			qs = append(qs, u.Disjuncts...)
		}
		for _, q := range qs {
			t.Run(q.Name, func(t *testing.T) { checkGroupProbe(t, buildIndex(t, db, q)) })
		}
	})

	t.Run("synth", func(t *testing.T) {
		for name, gen := range map[string]func(synth.Config) (*relation.Database, *query.CQ, error){"chain": synth.Chain, "star": synth.Star} {
			for _, cfg := range []synth.Config{
				{Relations: 2, TuplesPerRelation: 300, KeyDomain: 300, Seed: 1}, // mostly one-tuple buckets
				{Relations: 3, TuplesPerRelation: 400, KeyDomain: 25, Seed: 2},
				{Relations: 4, TuplesPerRelation: 120, KeyDomain: 6, SkewS: 1.4, Seed: 3}, // a few huge buckets
			} {
				t.Run(fmt.Sprintf("%s%d", name, cfg.Relations), func(t *testing.T) {
					db, q, err := gen(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkGroupProbe(t, buildIndex(t, db, q))
				})
			}
		}
	})

	// Nine children is one more than the grouped split has room for: that
	// node, and everything below it, is resolved probe by probe — as the
	// root here, and in the middle of a grouped descent when P sits above.
	t.Run("fan-out 9", func(t *testing.T) {
		for _, withParent := range []bool{false, true} {
			db := relation.NewDatabase()
			hubSchema, head := []string{}, []string{}
			var body []query.Atom
			var hubTerms []query.Term
			for i := 1; i <= 9; i++ {
				x, y := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
				hubSchema, head = append(hubSchema, x), append(head, x, y)
				hubTerms = append(hubTerms, query.V(x))
				leaf := db.MustCreate(fmt.Sprintf("L%d", i), x, y)
				for v := 0; v < 3; v++ {
					for w := 0; w <= (v+i)%3; w++ { // buckets of 1, 2 and 3 tuples
						leaf.MustInsert(relation.Value(v), relation.Value(10*i+w))
					}
				}
				body = append(body, query.NewAtom(leaf.Name(), query.V(x), query.V(y)))
			}
			if withParent {
				p := db.MustCreate("P", "w", "x0")
				for w := 0; w < 7; w++ {
					p.MustInsert(relation.Value(100+w), relation.Value(w%3))
				}
				hubSchema, head = append(hubSchema, "x0"), append(head, "w", "x0")
				hubTerms = append(hubTerms, query.V("x0"))
			}
			hub := db.MustCreate("H", hubSchema...)
			rng := rand.New(rand.NewSource(9))
			for r := 0; r < 12; r++ {
				row := make([]relation.Value, len(hubSchema))
				for i := range row {
					row[i] = relation.Value(rng.Intn(3))
				}
				hub.MustInsert(row...)
			}
			// The join tree is rooted at the first atom.
			body = append([]query.Atom{query.NewAtom("H", hubTerms...)}, body...)
			if withParent {
				body = append([]query.Atom{query.NewAtom("P", query.V("w"), query.V("x0"))}, body...)
			}
			idx := buildIndex(t, db, query.MustCQ("fan", head, body...))
			if got := maxFanOut(idx); got <= maxSplitChildren {
				t.Fatalf("fixture has fan-out %d, want more than %d", got, maxSplitChildren)
			}
			if withParent && len(idx.root.children) > maxSplitChildren {
				t.Fatal("fixture's wide node is the root: the fallback is not reached from a grouped descent")
			}
			checkGroupProbe(t, idx)
		}
	})

	// Without the full reduction, dangling tuples stay in their buckets with
	// weight zero: the grouped search must step over them like the single
	// one, also where a bucket's only tuple could be a dangling one.
	t.Run("dangling", func(t *testing.T) {
		db := relation.NewDatabase()
		r := db.MustCreate("R", "a", "b")
		s := db.MustCreate("S", "b", "c")
		u := db.MustCreate("U", "c", "d")
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 400; i++ {
			r.MustInsert(relation.Value(rng.Intn(60)), relation.Value(rng.Intn(40)))
			s.MustInsert(relation.Value(rng.Intn(40)+10), relation.Value(rng.Intn(200)))
			u.MustInsert(relation.Value(rng.Intn(200)+50), relation.Value(rng.Intn(9)))
		}
		q := query.MustCQ("q", []string{"a", "b", "c", "d"},
			query.NewAtom("R", query.V("a"), query.V("b")),
			query.NewAtom("S", query.V("b"), query.V("c")),
			query.NewAtom("U", query.V("c"), query.V("d")))
		fj, err := reduce.BuildFullJoin(db, q, reduce.Options{SkipFullReduce: true})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := New(fj)
		if err != nil {
			t.Fatal(err)
		}
		dangling := 0
		for _, n := range idx.nodes {
			for g := uint32(0); int(g) < n.grouping.NumGroups(); g++ {
				for slot := n.bucketOff[g]; slot < n.bucketOff[g+1]; slot++ {
					if lo, hi := n.slotSpan(g, slot); lo == hi {
						dangling++
					}
				}
			}
		}
		if dangling == 0 {
			t.Fatal("fixture has no zero-weight tuple")
		}
		checkGroupProbe(t, idx)
	})
}

// TestAccessBatchIntoContract: the caller-owned form validates before it
// writes, and allocates nothing.
func TestAccessBatchIntoContract(t *testing.T) {
	for name, idx := range allocIndexes(t) {
		t.Run(name, func(t *testing.T) {
			n, arity := idx.Count(), len(idx.Head())
			js := make([]int64, 64)
			rows := make([]relation.Tuple, len(js))
			for i := range js {
				js[i] = (int64(i) * 7919) % n
				rows[i] = make(relation.Tuple, arity)
			}
			if got := testing.AllocsPerRun(50, func() {
				if err := idx.AccessBatchInto(js, rows); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Fatalf("AccessBatchInto allocates %.1f times per call, want 0", got)
			}

			if err := idx.AccessBatchInto(js, rows[:10]); err == nil {
				t.Fatal("10 rows for 64 positions accepted")
			}
			before := rows[0].Clone()
			js[len(js)-1] = n
			if err := idx.AccessBatchInto(js, rows); err != ErrOutOfBounds {
				t.Fatalf("out-of-range position: err = %v, want ErrOutOfBounds", err)
			}
			js[0]++ // had the call probed before validating, row 0 would differ now
			if err := idx.AccessBatchInto(js, rows); err != ErrOutOfBounds || !rows[0].Equal(before) {
				t.Fatalf("failed call wrote a row: err = %v, row 0 %v, was %v", err, rows[0], before)
			}
			if err := idx.AccessBatchInto(nil, nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
		})
	}
}
