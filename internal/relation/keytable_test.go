package relation

import (
	"math/rand"
	"testing"
)

// TestKeyTableAgainstMap drives Intern/Lookup against a plain map of
// canonical string keys: the empty key, one value, pairs, pairs that take
// values ≥ 2³² and negative ones mid-stream, triples, and a key too wide to
// gather on the stack.
func TestKeyTableAgainstMap(t *testing.T) {
	wild := []Value{1 << 32, -1, 1<<40 + 7}
	for _, tc := range []struct {
		name     string
		width    int
		wildFrom int // step from which values ≥ 2³² or < 0 are drawn; -1 never
	}{
		{"empty", 0, -1},
		{"one", 1, 0},
		{"pair", 2, -1},
		{"pair-wild", 2, 200},
		{"triple", 3, 100},
		{"heap-key", keyStackCap + 1, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.width)))
			proj := make([]int, tc.width)
			for i := range proj {
				proj[i] = tc.width - i // read the row back to front, off by one
			}
			kt := NewKeyTable(tc.width, 0)
			want := map[string]int32{}
			row := make([]Value, tc.width+1)
			for step := 0; step < 600; step++ {
				for i := range row {
					row[i] = Value(rng.Intn(7))
					if tc.wildFrom >= 0 && step >= tc.wildFrom && rng.Intn(4) == 0 {
						row[i] = wild[rng.Intn(len(wild))]
					}
				}
				key := Tuple(row).ProjectKey(proj)
				id, known := want[key]
				if got, ok := kt.Lookup(row, proj); ok != known || (ok && got != id) {
					t.Fatalf("step %d: Lookup(%v) = %d,%v, want %d,%v", step, row, got, ok, id, known)
				}
				if rng.Intn(2) == 0 {
					continue
				}
				got, added := kt.Intern(row, proj)
				if !known {
					id = int32(len(want))
					want[key] = id
				}
				if got != id || added == known {
					t.Fatalf("step %d: Intern(%v) = %d,%v, want %d,%v", step, row, got, added, id, !known)
				}
			}
		})
	}
}

func TestKeyTableLookupAllocatesNothing(t *testing.T) {
	const widest = KeyBufCap / 8
	row := make([]Value, widest)
	for _, width := range []int{1, 2, 3, widest} {
		proj := make([]int, width)
		for i := range proj {
			proj[i] = i
		}
		kt := NewKeyTable(width, 0)
		kt.Intern(row, proj)
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := kt.Lookup(row, proj); !ok {
				t.Fatal("interned key not found")
			}
			if _, added := kt.Intern(row, proj); added {
				t.Fatal("interned key added again")
			}
		}); n != 0 {
			t.Errorf("width %d: %v allocs per Lookup+Intern of a known key", width, n)
		}
	}
}

// TestKeyTableInternRowsMatchesIntern holds the block-hashed bulk path to
// Intern row by row: the same ids, skipped rows untouched and uninterned,
// across blocks, growth and a key repeated inside one block.
func TestKeyTableInternRowsMatchesIntern(t *testing.T) {
	for _, width := range []int{0, 1, 2, 3, keyStackCap + 1} {
		rng := rand.New(rand.NewSource(int64(width)))
		const arity, rows = keyStackCap + 2, 300
		proj := make([]int, width)
		for i := range proj {
			proj[i] = arity - 1 - i
		}
		vals := make([]Value, arity*rows)
		for i := range vals {
			vals[i] = Value(rng.Intn(3)) - 1
		}
		bulk, one := NewKeyTable(width, 0), NewKeyTable(width, 0)
		bulk.Intern(vals, proj) // a key held before the bulk pass
		one.Intern(vals, proj)
		ids, skip := make([]int32, rows), make([]bool, rows)
		for i := range ids {
			if skip[i] = rng.Intn(5) == 0; skip[i] {
				ids[i] = -1
			}
		}
		bulk.InternRows(ids, vals, arity, proj)
		for i, id := range ids {
			row := vals[i*arity : (i+1)*arity]
			if skip[i] {
				if id != -1 {
					t.Fatalf("width %d row %d: skipped row given id %d", width, i, id)
				}
				continue
			}
			if want, _ := one.Intern(row, proj); id != want {
				t.Fatalf("width %d row %d: InternRows id %d, Intern id %d", width, i, id, want)
			}
		}
		if bulk.Len() != one.Len() {
			t.Fatalf("width %d: InternRows holds %d keys, Intern %d", width, bulk.Len(), one.Len())
		}
		for i := 0; i < rows; i++ {
			row := vals[i*arity : (i+1)*arity]
			got, gok := bulk.Lookup(row, proj)
			want, wok := one.Lookup(row, proj)
			if got != want || gok != wok {
				t.Fatalf("width %d row %d: Lookup %d,%v after InternRows, %d,%v after Intern", width, i, got, gok, want, wok)
			}
		}
	}
}
