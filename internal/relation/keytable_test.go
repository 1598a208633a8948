package relation

import (
	"math/rand"
	"testing"
)

// TestKeyTableAgainstMap drives Intern/Lookup against a plain map of
// canonical string keys at every width class: the empty key, packed keys,
// a packed table that migrates mid-stream (a value ≥ 2³², a negative one),
// and keys that are wide from the start.
func TestKeyTableAgainstMap(t *testing.T) {
	wild := []Value{1 << 32, -1, 1<<40 + 7}
	for _, tc := range []struct {
		name     string
		width    int
		wildFrom int // step from which unpackable values are drawn; -1 never
	}{
		{"empty", 0, -1},
		{"one", 1, 0},
		{"pair", 2, -1},
		{"pair-migrates", 2, 200},
		{"triple", 3, 100},
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
			if tc.name == "pair-migrates" && kt.packed != nil {
				t.Fatal("an unpackable pair left the table packed")
			}
			if tc.name == "pair" && kt.packed == nil {
				t.Fatal("packable pairs migrated the table")
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
