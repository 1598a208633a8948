package dynaccess

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// replay populates an index the way NewFromTables did before the bulk
// loader: every tuple through Insert in arrival order, then every tombstone
// through Delete. It survives as the loader's oracle.
func replay(t *testing.T, q *query.CQ, tables []BaseTable) *Index {
	t.Helper()
	empty := make([]BaseTable, len(tables))
	for i, tb := range tables {
		empty[i] = BaseTable{Name: tb.Name, Arity: tb.Arity}
	}
	idx, err := NewFromTables(q, empty)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		row := func(i int64) relation.Tuple { return tb.Values[int(i)*tb.Arity : (int(i)+1)*tb.Arity] }
		for i := 0; i < tb.Rows; i++ {
			if _, err := idx.Insert(tb.Name, row(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range tb.Dead {
			if _, err := idx.Delete(tb.Name, row(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return idx
}

// Two values far outside every case's domain: one above 2³², one negative.
var outOfDomain = []relation.Value{1<<32 + 3, -2}

type bulkCase struct {
	name   string
	q      *query.CQ
	arity  map[string]int
	domain int
	// wildTables puts outOfDomain values into the loaded tables; wildStream
	// puts them into the updates after the load, under a live index.
	wildTables, wildStream bool
}

func v(names ...string) []query.Term {
	ts := make([]query.Term, len(names))
	for i, n := range names {
		ts[i] = query.V(n)
	}
	return ts
}

func bulkCases() []bulkCase {
	return []bulkCase{
		{name: "chain", q: chainQ(), arity: map[string]int{"R": 2, "S": 2}, domain: 5},
		{name: "three-level", domain: 4, arity: map[string]int{"R": 2, "S": 2, "U": 2},
			q: query.MustCQ("q", []string{"a", "b", "c", "d"},
				query.NewAtom("R", v("a", "b")...), query.NewAtom("S", v("b", "c")...), query.NewAtom("U", v("c", "d")...))},
		{name: "self-join", domain: 5, arity: map[string]int{"E": 2},
			q: query.MustCQ("q", []string{"x", "y", "z"},
				query.NewAtom("E", v("x", "y")...), query.NewAtom("E", v("y", "z")...))},
		{name: "constant", domain: 4, arity: map[string]int{"R": 2, "S": 2},
			q: query.MustCQ("q", []string{"b", "c"},
				query.NewAtom("R", query.C(2), query.V("b")), query.NewAtom("S", v("b", "c")...))},
		{name: "repeated-variable", domain: 4, arity: map[string]int{"R": 2, "S": 2},
			q: query.MustCQ("q", []string{"a", "c"},
				query.NewAtom("R", v("a", "a")...), query.NewAtom("S", v("a", "c")...))},
		{name: "three-attribute-key", domain: 3, arity: map[string]int{"R": 4, "S": 4},
			q: query.MustCQ("q", []string{"a", "b", "c", "d", "e"},
				query.NewAtom("R", v("a", "b", "c", "d")...), query.NewAtom("S", v("b", "c", "d", "e")...))},
		// Identity tables of arity 2 and a bucket key of two attributes, keyed
		// by small values until an outOfDomain one shows up: in the updates
		// under a live index, then also in the loaded tables.
		{name: "out-of-domain-updates", domain: 3, arity: map[string]int{"R": 2, "S": 3, "U": 3}, wildStream: true,
			q: query.MustCQ("q", []string{"a", "b", "c", "d"},
				query.NewAtom("R", v("a", "b")...), query.NewAtom("S", v("a", "b", "c")...), query.NewAtom("U", v("b", "c", "d")...))},
		{name: "out-of-domain-load", domain: 3, arity: map[string]int{"R": 2, "S": 3, "U": 3}, wildTables: true, wildStream: true,
			q: query.MustCQ("q", []string{"a", "b", "c", "d"},
				query.NewAtom("R", v("a", "b")...), query.NewAtom("S", v("a", "b", "c")...), query.NewAtom("U", v("b", "c", "d")...))},
	}
}

func (c bulkCase) tuple(rng *rand.Rand, rel string, wild bool) relation.Tuple {
	t := make(relation.Tuple, c.arity[rel])
	for i := range t {
		t[i] = relation.Value(rng.Intn(c.domain))
		if wild && rng.Intn(6) == 0 {
			t[i] = outOfDomain[rng.Intn(len(outOfDomain))]
		}
	}
	return t
}

// rels lists the case's relations in a fixed order (map order would make
// the seeded streams differ from run to run).
func (c bulkCase) rels() []string {
	names := make([]string, 0, len(c.arity))
	for name := range c.arity {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// randomTables draws distinct rows per relation and tombstones a quarter.
func (c bulkCase) randomTables(rng *rand.Rand) []BaseTable {
	tables := make([]BaseTable, len(c.arity))
	for i, name := range c.rels() {
		tb := &tables[i]
		tb.Name, tb.Arity = name, c.arity[name]
		seen := map[string]bool{}
		for k := 0; k < 40; k++ {
			row := c.tuple(rng, tb.Name, c.wildTables)
			if seen[row.Key()] {
				continue
			}
			seen[row.Key()] = true
			if rng.Intn(4) == 0 {
				tb.Dead = append(tb.Dead, int64(tb.Rows))
			}
			tb.Values = append(tb.Values, row...)
			tb.Rows++
		}
	}
	return tables
}

// sameIndex compares everything observable: count, the full enumeration,
// its inverse, and the export (values, positions, tombstones).
func sameIndex(t *testing.T, when string, got, want *Index) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: Count %d, replay has %d", when, got.Count(), want.Count())
	}
	js := make([]int64, want.Count())
	for j := range js {
		js[j] = int64(j)
	}
	batch, err := got.AccessBatch(context.Background(), js)
	if err != nil {
		t.Fatalf("%s: AccessBatch: %v", when, err)
	}
	if _, err := got.AccessBatch(context.Background(), append(js, want.Count())); !errors.Is(err, access.ErrOutOfBounds) {
		t.Fatalf("%s: AccessBatch past the end: err = %v", when, err)
	}
	for j := int64(0); j < want.Count(); j++ {
		a, err := got.Access(j)
		if err != nil {
			t.Fatalf("%s: Access(%d): %v", when, j, err)
		}
		if !a.Equal(batch[j]) {
			t.Fatalf("%s: AccessBatch[%d] = %v, Access has %v", when, j, batch[j], a)
		}
		if b, _ := want.Access(j); !a.Equal(b) {
			t.Fatalf("%s: Access(%d) = %v, replay has %v", when, j, a, b)
		}
		if inv, ok := got.InvertedAccess(a); !ok || inv != j {
			t.Fatalf("%s: InvertedAccess(%v) = %d,%v, want %d", when, a, inv, ok, j)
		}
	}
	if g, w := got.Tables(), want.Tables(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: exports differ:\n got %v\nwant %v", when, g, w)
	}
}

// TestBulkLoadMatchesReplay: the bulk loader against the tuple-by-tuple
// replay it replaced, right after the load and after a further stream of
// updates on a small domain — revives must land in the same positions.
func TestBulkLoadMatchesReplay(t *testing.T) {
	for _, c := range bulkCases() {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/%d", c.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tables := c.randomTables(rng)
				bulk, err := NewFromTables(c.q, tables)
				if err != nil {
					t.Fatal(err)
				}
				ref := replay(t, c.q, tables)
				sameIndex(t, "after load", bulk, ref)
				if seed == 0 && bulk.Count() == 0 {
					t.Fatal("vacuous: the loaded index has no answers")
				}

				rels := c.rels()
				for i := 0; i < 300; i++ {
					rel := rels[rng.Intn(len(rels))]
					tup := c.tuple(rng, rel, c.wildStream && i >= 100)
					del := rng.Intn(3) == 0
					for _, idx := range []*Index{bulk, ref} {
						if del {
							_, err = idx.Delete(rel, tup)
						} else {
							_, err = idx.Insert(rel, tup)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				sameIndex(t, "after 300 updates", bulk, ref)

				// Both could be wrong together: check the survivor against
				// the naive evaluation of its own live rows.
				checkAgainstNaive(t, c, bulk)
				// And a rebuild of the result is the result.
				re, err := bulk.Rebuild()
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, "after rebuild", re, bulk)
			})
		}
	}
}

func checkAgainstNaive(t *testing.T, c bulkCase, idx *Index) {
	t.Helper()
	db := relation.NewDatabase()
	for _, tb := range idx.Tables() {
		attrs := make([]string, tb.Arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i)
		}
		rel := db.MustCreate(tb.Name, attrs...)
		dead := map[int64]bool{}
		for _, d := range tb.Dead {
			dead[d] = true
		}
		for i := 0; i < tb.Rows; i++ {
			if !dead[int64(i)] {
				if _, err := rel.Insert(relation.Tuple(tb.Values[i*tb.Arity : (i+1)*tb.Arity]).Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want, err := naive.Evaluate(db, c.q)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, naive evaluation has %d", idx.Count(), len(want))
	}
	for _, a := range want {
		if !idx.Contains(a) {
			t.Fatalf("answer %v of the naive evaluation is missing", a)
		}
	}
}
