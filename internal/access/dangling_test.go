package access

import (
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
)

// Without the full reduction, dangling tuples stay in their buckets with
// weight zero. The bucket search reads start indexes alone, so a zero-weight
// slot is told apart only by its start equalling its successor's (or the
// bucket total): these tests put such slots first, in the middle, in runs
// and last in a bucket, and hold every probe path against naive evaluation.

// danglingQuery is the chain R(a,b) ⋈ S(b,c) ⋈ U(c,d) with a second child
// W(b,e) under the root.
var danglingQuery = query.MustCQ("dangling", []string{"a", "b", "c", "d", "e"},
	query.NewAtom("R", query.V("a"), query.V("b")),
	query.NewAtom("S", query.V("b"), query.V("c")),
	query.NewAtom("U", query.V("c"), query.V("d")),
	query.NewAtom("W", query.V("b"), query.V("e")))

// danglingDB creates danglingQuery's four (empty) relations.
func danglingDB() (db *relation.Database, r, s, u, w *relation.Relation) {
	db = relation.NewDatabase()
	return db, db.MustCreate("R", "a", "b"), db.MustCreate("S", "b", "c"),
		db.MustCreate("U", "c", "d"), db.MustCreate("W", "b", "e")
}

func buildUnreduced(t *testing.T, db *relation.Database) *Index {
	t.Helper()
	fj, err := reduce.BuildFullJoin(db, danglingQuery, reduce.Options{SkipFullReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(fj)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// zeroWeightPlaces reports whether some inner-node bucket of at least two
// slots has a zero-weight slot first, strictly inside, and last.
func zeroWeightPlaces(idx *Index) (first, middle, last bool) {
	for _, n := range idx.nodes {
		if n.leaf() {
			continue
		}
		for g := uint32(0); int(g) < n.grouping.NumGroups(); g++ {
			lo, hi := n.bucketOff[g], n.bucketOff[g+1]
			if hi-lo < 2 {
				continue
			}
			for slot := lo; slot < hi; slot++ {
				if s, e := n.slotSpan(g, slot); s != e {
					continue
				}
				switch slot {
				case lo:
					first = true
				case hi - 1:
					last = true
				default:
					middle = true
				}
			}
		}
	}
	return first, middle, last
}

// checkUnreduced holds Access, the grouped AccessBatchInto, AccessLinear and
// InvertedAccess of an index built without the full reduction against
// naive evaluation of the same query.
func checkUnreduced(t *testing.T, db *relation.Database, idx *Index) {
	t.Helper()
	want, err := naive.Evaluate(db, danglingQuery)
	if err != nil {
		t.Fatal(err)
	}
	n := idx.Count()
	if n != int64(len(want)) {
		t.Fatalf("Count = %d, naive evaluation has %d answers", n, len(want))
	}
	got := make([]relation.Tuple, n)
	answers := make(map[string]bool, n)
	for j := int64(0); j < n; j++ {
		a, err := idx.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if answers[a.Key()] {
			t.Fatalf("Access(%d) = %v repeats an earlier answer", j, a)
		}
		answers[a.Key()] = true
		got[j] = a
		if l, err := idx.AccessLinear(j); err != nil || !l.Equal(a) {
			t.Fatalf("AccessLinear(%d) = %v (%v), Access %v", j, l, err, a)
		}
		if k, ok := idx.InvertedAccess(a); !ok || k != j {
			t.Fatalf("InvertedAccess(Access(%d)) = %d, %v", j, k, ok)
		}
	}
	if !naive.SameAnswerSet(got, want) {
		t.Fatalf("Access enumerates %v, naive evaluation %v", got, want)
	}

	// The grouped descent: positions in reverse and shuffled order, so no
	// group is a run of consecutive positions left to the single probe.
	js := make([]int64, n)
	for i := range js {
		js[i] = n - 1 - int64(i)
	}
	shuffled := append([]int64(nil), js...)
	rand.New(rand.NewSource(n)).Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
	for _, js := range [][]int64{js, shuffled} {
		rows := make([]relation.Tuple, len(js))
		for i := range rows {
			rows[i] = make(relation.Tuple, len(idx.Head()))
		}
		if err := idx.AccessBatchInto(js, rows); err != nil {
			t.Fatal(err)
		}
		for i, j := range js {
			if !rows[i].Equal(got[j]) {
				t.Fatalf("AccessBatchInto row %d (j=%d) = %v, Access %v", i, j, rows[i], got[j])
			}
		}
	}

	// Near misses: every answer with one column swapped for another value of
	// that column — many of them pass through a dangling tuple.
	for _, a := range want {
		for col := range a {
			for _, b := range want {
				fake := a.Clone()
				fake[col] = b[col]
				if _, ok := idx.InvertedAccess(fake); ok != answers[fake.Key()] {
					t.Fatalf("InvertedAccess(%v) ok = %v, want %v", fake, ok, !ok)
				}
			}
		}
	}
}

// TestDanglingSlotsCrafted places zero-weight slots by hand: first, inside
// (two in a row) and last in the root's one bucket; first, middle and last
// in an inner bucket; a run of two closing a bucket; and a bucket whose only
// slot is dangling, so its total is zero.
func TestDanglingSlotsCrafted(t *testing.T) {
	db, r, s, u, w := danglingDB()
	for _, tu := range [][2]relation.Value{{1, 90}, {2, 10}, {3, 91}, {4, 92}, {5, 11}, {6, 12}, {7, 10}, {8, 93}} {
		r.MustInsert(tu[0], tu[1])
	}
	for _, tu := range [][2]relation.Value{
		{10, 80}, {11, 20}, {10, 20}, {12, 85}, {10, 81}, {11, 83}, {10, 21}, {11, 84}, {10, 82},
	} {
		s.MustInsert(tu[0], tu[1])
	}
	for _, tu := range [][2]relation.Value{{20, 1}, {20, 2}, {21, 3}} {
		u.MustInsert(tu[0], tu[1])
	}
	for _, tu := range [][2]relation.Value{{10, 4}, {11, 5}, {11, 6}, {12, 7}, {90, 8}, {93, 9}} {
		w.MustInsert(tu[0], tu[1])
	}
	idx := buildUnreduced(t, db)
	// Root weights 0, 3, 0, 0, 4, 0, 3, 0: S's b=10 bucket weighs 2+1, its
	// b=11 bucket 2, times W's bucket sizes 1 and 2.
	if idx.Count() != 10 {
		t.Fatalf("Count = %d, want 10", idx.Count())
	}
	if first, middle, last := zeroWeightPlaces(idx); !first || !middle || !last {
		t.Fatalf("fixture misses a place: first %v, middle %v, last %v", first, middle, last)
	}
	checkUnreduced(t, db, idx)
}

// TestDanglingSlotsRandom is the property form: random unreduced instances
// over small domains, which between them put zero-weight slots in every
// place of a bucket.
func TestDanglingSlotsRandom(t *testing.T) {
	var first, middle, last bool
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, r, s, u, w := danglingDB()
		for _, re := range []*relation.Relation{r, s, u, w} {
			for i := 0; i < 4+rng.Intn(20); i++ {
				re.MustInsert(relation.Value(rng.Intn(7)), relation.Value(rng.Intn(7)))
			}
		}
		idx := buildUnreduced(t, db)
		f, m, l := zeroWeightPlaces(idx)
		first, middle, last = first || f, middle || m, last || l
		checkUnreduced(t, db, idx)
	}
	if !first || !middle || !last {
		t.Fatalf("instances miss a place: first %v, middle %v, last %v", first, middle, last)
	}
}
