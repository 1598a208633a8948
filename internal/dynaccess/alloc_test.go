package dynaccess

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// stackKeyFixture is a two-atom join whose tuple identities are as wide as
// a key the flat table gathers on the stack — KeyBufCap/8 attributes — over
// a join key one attribute narrower.
func stackKeyFixture(t testing.TB) *Index {
	const width = relation.KeyBufCap / 8
	vars := make([]string, width)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	head := append(append([]string{}, vars...), "y")
	q := query.MustCQ("stackkey", head,
		query.NewAtom("R", v(vars...)...),
		query.NewAtom("S", v(append(vars[1:len(vars):len(vars)], "y")...)...))
	tables := []BaseTable{{Name: "R", Arity: width}, {Name: "S", Arity: width}}
	for i := 0; i < 8; i++ {
		for a := 0; a < width; a++ {
			tables[0].Values = append(tables[0].Values, relation.Value(i%4))
			tables[1].Values = append(tables[1].Values, relation.Value(i%4))
		}
		tables[0].Values[i*width] = relation.Value(i)             // x0: distinct R rows
		tables[1].Values[(i+1)*width-1] = relation.Value(100 + i) // y: distinct S rows
		tables[0].Rows++
		tables[1].Rows++
	}
	idx, err := NewFromTables(q, tables)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Count() == 0 {
		t.Fatal("stack-key fixture has no answers")
	}
	return idx
}

// narrowKeyFixture is chainQ over 64 tuples a relation: keys of one and two
// small values.
func narrowKeyFixture(t testing.TB) *Index {
	idx, err := New(freshDB(), chainQ())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		idx.Insert("R", relation.Tuple{relation.Value(i), relation.Value(i % 8)})
		idx.Insert("S", relation.Tuple{relation.Value(i % 8), relation.Value(i)})
	}
	return idx
}

// TestHotPathsAllocateNothing pins ROADMAP 2b at this layer: the probes,
// the delete and the reviving insert never touch the heap, on keys of one
// and two attributes and on keys up to the stack buffer's width; a sample
// of k answers is two allocations (the flat buffer and the row headers),
// whatever k.
func TestHotPathsAllocateNothing(t *testing.T) {
	for name, fixture := range map[string]func(testing.TB) *Index{"narrow-key": narrowKeyFixture, "stack-key": stackKeyFixture} {
		t.Run(name, func(t *testing.T) {
			idx := fixture(t)
			answer := make(relation.Tuple, len(idx.Head()))
			n := idx.Count()
			var j int64
			pin := func(what string, max float64, f func()) {
				t.Helper()
				if got := testing.AllocsPerRun(100, f); got > max {
					t.Errorf("%s: %v allocs per run, want ≤ %v", what, got, max)
				}
			}
			pin("AccessInto", 0, func() {
				j = (j + 7) % n
				if err := idx.AccessInto(j, answer); err != nil {
					t.Fatal(err)
				}
			})
			pin("InvertedAccess", 0, func() {
				if inv, ok := idx.InvertedAccess(answer); !ok || inv != j {
					t.Fatalf("InvertedAccess = %d,%v, want %d", inv, ok, j)
				}
			})
			pin("Contains", 0, func() {
				if !idx.Contains(answer) {
					t.Fatal("answer not contained")
				}
			})
			// A live row of each relation: delete it, revive it in place.
			for _, tb := range idx.Tables() {
				row := relation.Tuple(tb.Values[:tb.Arity]).Clone()
				pin("Delete+Insert(revive) on "+tb.Name, 0, func() {
					if changed, err := idx.Delete(tb.Name, row); err != nil || !changed {
						t.Fatalf("Delete = %v, %v", changed, err)
					}
					if changed, err := idx.Insert(tb.Name, row); err != nil || !changed {
						t.Fatalf("Insert = %v, %v", changed, err)
					}
				})
			}
			rng := rand.New(rand.NewSource(1))
			pin("SampleN(16)", 2, func() {
				if got := idx.SampleN(16, rng); len(got) != 16 {
					t.Fatalf("SampleN(16) returned %d answers", len(got))
				}
			})
			if idx.Count() != n {
				t.Fatalf("Count moved from %d to %d", n, idx.Count())
			}
		})
	}
}
