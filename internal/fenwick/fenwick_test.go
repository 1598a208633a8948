package fenwick

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatal("empty tree wrong")
	}
	if tr.FindPrefix(0) != -1 {
		t.Fatal("FindPrefix on empty must be -1")
	}
}

func TestAppendAndPrefix(t *testing.T) {
	tr := New([]int64{3, 0, 5, 2})
	if tr.Len() != 4 || tr.Total() != 10 {
		t.Fatalf("len/total = %d/%d", tr.Len(), tr.Total())
	}
	wantPrefix := []int64{0, 3, 3, 8, 10}
	for n, w := range wantPrefix {
		if got := tr.Prefix(n); got != w {
			t.Fatalf("Prefix(%d) = %d, want %d", n, got, w)
		}
	}
	if tr.Range(1, 3) != 5 {
		t.Fatalf("Range(1,3) = %d", tr.Range(1, 3))
	}
}

func TestSetAddValue(t *testing.T) {
	tr := New([]int64{1, 1, 1})
	tr.Set(1, 5)
	if tr.Value(1) != 5 || tr.Total() != 7 {
		t.Fatal("Set wrong")
	}
	tr.Add(0, 2)
	if tr.Value(0) != 3 || tr.Prefix(1) != 3 {
		t.Fatal("Add wrong")
	}
	tr.Add(2, 0) // no-op fast path
	if tr.Total() != 9 {
		t.Fatal("no-op Add changed total")
	}
}

func TestFindPrefixKnown(t *testing.T) {
	tr := New([]int64{3, 0, 5, 2})
	// Ranges: [0,3) → pos 0; pos 1 empty; [3,8) → pos 2; [8,10) → pos 3.
	cases := map[int64]int{0: 0, 2: 0, 3: 2, 7: 2, 8: 3, 9: 3}
	for target, want := range cases {
		if got := tr.FindPrefix(target); got != want {
			t.Fatalf("FindPrefix(%d) = %d, want %d", target, got, want)
		}
	}
	if tr.FindPrefix(10) != -1 || tr.FindPrefix(-1) != -1 {
		t.Fatal("out-of-range FindPrefix")
	}
}

// TestQuickAgainstNaive fuzzes mixed operations against a plain slice.
func TestQuickAgainstNaive(t *testing.T) {
	prop := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw)%200 + 10
		var tr Tree
		var naive []int64
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0: // append
				v := int64(rng.Intn(10))
				tr.Append(v)
				naive = append(naive, v)
			case 1: // set
				if len(naive) == 0 {
					continue
				}
				p := rng.Intn(len(naive))
				v := int64(rng.Intn(10))
				tr.Set(p, v)
				naive[p] = v
			case 2: // prefix check
				n := 0
				if len(naive) > 0 {
					n = rng.Intn(len(naive) + 1)
				}
				var want int64
				for _, v := range naive[:n] {
					want += v
				}
				if tr.Prefix(n) != want {
					return false
				}
			case 3: // find-prefix check
				var total int64
				for _, v := range naive {
					total += v
				}
				if total == 0 {
					if tr.FindPrefix(0) != -1 {
						return false
					}
					continue
				}
				target := rng.Int63n(total)
				// Naive scan.
				var acc int64
				want := -1
				for p, v := range naive {
					if target < acc+v {
						want = p
						break
					}
					acc += v
				}
				if tr.FindPrefix(target) != want {
					return false
				}
			}
		}
		// Final totals agree.
		var want int64
		for _, v := range naive {
			want += v
		}
		return tr.Total() == want && tr.Len() == len(naive)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFindPrefixSkipsZeros(t *testing.T) {
	tr := New([]int64{0, 0, 4, 0, 1})
	if tr.FindPrefix(0) != 2 {
		t.Fatalf("FindPrefix(0) = %d, want 2", tr.FindPrefix(0))
	}
	if tr.FindPrefix(4) != 4 {
		t.Fatalf("FindPrefix(4) = %d, want 4", tr.FindPrefix(4))
	}
}

func TestLargeAppendSequence(t *testing.T) {
	var tr Tree
	for i := 0; i < 10000; i++ {
		tr.Append(1)
	}
	if tr.Total() != 10000 {
		t.Fatal("total wrong")
	}
	if tr.FindPrefix(5000) != 5000 {
		t.Fatal("identity find wrong")
	}
	if tr.Prefix(7777) != 7777 {
		t.Fatal("prefix wrong")
	}
}

// TestOverMatchesAppend: the linear-time construction is the tree Append
// builds one value at a time — same prefixes, same searches — and a tree
// over a capacity-capped piece of an arena grows away from its neighbour.
func TestOverMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 70; n++ {
		vals := make([]int64, n)
		var ref Tree
		for i := range vals {
			vals[i] = int64(rng.Intn(5)) // zeros included
			ref.Append(vals[i])
		}
		arena, scratch := make([]int64, n+4), make([]int64, n+4)
		copy(arena, vals)
		arena[n] = -99
		tr := Over(arena[:n:n], scratch[:n:n])
		if tr.Len() != n || tr.Total() != ref.Total() {
			t.Fatalf("n=%d: Len %d Total %d, want %d %d", n, tr.Len(), tr.Total(), n, ref.Total())
		}
		for i := 0; i <= n; i++ {
			if tr.Prefix(i) != ref.Prefix(i) {
				t.Fatalf("n=%d: Prefix(%d) = %d, want %d", n, i, tr.Prefix(i), ref.Prefix(i))
			}
		}
		for target := int64(0); target < ref.Total(); target++ {
			p, rem := tr.Find(target)
			if p != ref.FindPrefix(target) || rem != target-ref.Prefix(p) {
				t.Fatalf("n=%d: Find(%d) = %d,%d, want %d,%d", n, target, p, rem, ref.FindPrefix(target), target-ref.Prefix(p))
			}
		}
		tr.Append(3)
		tr.Set(n, 4)
		if arena[n] != -99 || tr.Total() != ref.Total()+4 || tr.Prefix(n+1) != ref.Total()+4 {
			t.Fatalf("n=%d: Append after Over wrote into the arena or lost the sum", n)
		}
	}
}
