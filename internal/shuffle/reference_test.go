package shuffle

import (
	"math/rand"
	"runtime"
	"testing"
)

// refShuffler and refDeletionSet are the map-based implementations the flat
// table replaced, kept verbatim as the oracle: the table is a storage swap,
// so the same rng must give the same outputs, call for call.
type refShuffler struct {
	n, i int64
	a    map[int64]int64
	rng  *rand.Rand
}

func newRefShuffler(n int64, rng *rand.Rand) *refShuffler {
	return &refShuffler{n: n, a: make(map[int64]int64), rng: rng}
}

func (s *refShuffler) Next() (int64, bool) {
	if s.i >= s.n {
		return 0, false
	}
	i := s.i
	j := i + s.rng.Int63n(s.n-i)
	ai, ok := s.a[i]
	if !ok {
		ai = i
	}
	aj, ok := s.a[j]
	if !ok {
		aj = j
	}
	s.a[i] = aj
	s.a[j] = ai
	s.i++
	return aj, true
}

type refDeletionSet struct {
	n, i int64
	a, b map[int64]int64
}

func newRefDeletionSet(n int64) *refDeletionSet {
	return &refDeletionSet{n: n, a: make(map[int64]int64), b: make(map[int64]int64)}
}

func (d *refDeletionSet) av(k int64) int64 {
	if v, ok := d.a[k]; ok {
		return v
	}
	return k
}

func (d *refDeletionSet) bv(m int64) int64 {
	if v, ok := d.b[m]; ok {
		return v
	}
	return m
}

func (d *refDeletionSet) Count() int64 { return d.n - d.i }

func (d *refDeletionSet) Sample(rng *rand.Rand) (int64, bool) {
	if d.i >= d.n {
		return 0, false
	}
	return d.av(d.i + rng.Int63n(d.n-d.i)), true
}

func (d *refDeletionSet) Deleted(m int64) bool {
	if m < 0 || m >= d.n {
		return true
	}
	return d.bv(m) < d.i
}

func (d *refDeletionSet) Delete(m int64) bool {
	if m < 0 || m >= d.n {
		return false
	}
	k := d.bv(m)
	if k < d.i {
		return false
	}
	vi := d.av(d.i)
	d.a[k] = vi
	d.b[vi] = k
	d.a[d.i] = m
	d.b[m] = d.i
	d.i++
	return true
}

// TestShufflerMatchesReference: same seed, same sequence — for a full drain
// through Next, and for a partial draw through Draw in uneven chunks.
func TestShufflerMatchesReference(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 17, 1 << 12, 1 << 17} {
		ref := newRefShuffler(n, rand.New(rand.NewSource(n+5)))
		got := New(n, rand.New(rand.NewSource(n+5)))
		for i := int64(0); i <= n; i++ {
			wv, wok := ref.Next()
			gv, gok := got.Next()
			if wv != gv || wok != gok {
				t.Fatalf("n=%d: element %d is (%d, %v), reference (%d, %v)", n, i, gv, gok, wv, wok)
			}
		}

		ref = newRefShuffler(n, rand.New(rand.NewSource(n+6)))
		got = New(n, rand.New(rand.NewSource(n+6)))
		var js []int64
		for _, k := range []int64{-1, 0, 1, 1, 2, 64, 3, 1000} {
			before := len(js)
			js = got.Draw(js, k)
			want := max(0, min(k, n-int64(before)))
			if int64(len(js)-before) != want {
				t.Fatalf("n=%d: Draw(%d) after %d appended %d elements, want %d", n, k, before, len(js)-before, want)
			}
		}
		for i, gv := range js {
			if wv, _ := ref.Next(); wv != gv {
				t.Fatalf("n=%d: drawn element %d is %d, reference %d", n, i, gv, wv)
			}
		}
		if want := n - int64(len(js)); got.Remaining() != want {
			t.Fatalf("n=%d: Remaining = %d after drawing %d, want %d", n, got.Remaining(), len(js), want)
		}
	}
}

// TestDeletionSetMatchesReference drives both structures with the same
// random operations, including repeated and out-of-range deletes, until the
// set is empty.
func TestDeletionSetMatchesReference(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 17, 1 << 12} {
		ops := rand.New(rand.NewSource(n))
		refRng, gotRng := rand.New(rand.NewSource(n+1)), rand.New(rand.NewSource(n+1))
		ref, got := newRefDeletionSet(n), NewDeletionSet(n)
		for step := 0; ref.Count() > 0 || step < 8; step++ {
			switch ops.Intn(4) {
			case 0: // delete what the reference samples: always a live value
				m, ok := ref.Sample(refRng)
				if gm, gok := got.Sample(gotRng); gm != m || gok != ok {
					t.Fatalf("n=%d step %d: Sample = (%d, %v), reference (%d, %v)", n, step, gm, gok, m, ok)
				}
				if ok && (!ref.Delete(m) || !got.Delete(m)) {
					t.Fatalf("n=%d step %d: Delete(%d) of a sampled value failed", n, step, m)
				}
			case 1: // delete anything, two positions past either end included
				m := ops.Int63n(n+4) - 2
				if w, g := ref.Delete(m), got.Delete(m); w != g {
					t.Fatalf("n=%d step %d: Delete(%d) = %v, reference %v", n, step, m, g, w)
				}
			case 2:
				m := ops.Int63n(n+4) - 2
				if w, g := ref.Deleted(m), got.Deleted(m); w != g {
					t.Fatalf("n=%d step %d: Deleted(%d) = %v, reference %v", n, step, m, g, w)
				}
			case 3:
				if w, g := ref.Count(), got.Count(); w != g {
					t.Fatalf("n=%d step %d: Count = %d, reference %d", n, step, g, w)
				}
			}
		}
		if _, ok := got.Sample(gotRng); ok || got.Count() != 0 {
			t.Fatalf("n=%d: drained set still samples (count %d)", n, got.Count())
		}
	}
}

// tableBytes is what the table holds on to: 16 bytes a slot, both arrays.
func tableBytes(t *table) int { return 16 * (len(t.cur) + len(t.old)) }

// TestTableBoundedWork pins the table's four promises on the two shapes a
// Shuffler sees. No operation moves more than migrateStep slots, so no Next
// pays for a rehash. A sparse draw — a cursor over a huge answer set, where
// every drawn position stays live — holds at most 64 bytes a live key while
// a doubling has both arrays resident and at most 40 between doublings
// (16-byte slots at a load between 7/16 and 7/8), and allocates only when
// it doubles: amortised 0 allocations a draw, asserted as at most 0.01. A
// full drain, where the live keys rise to n/4 and fall back to none, never
// holds more than 64 bytes per key of its peak and ends at the minimum
// capacity.
func TestTableBoundedWork(t *testing.T) {
	step := func(s *Shuffler) {
		before := s.a.moved
		s.Next()
		// Next is one take and at most one swap: two migration steps.
		if d := s.a.moved - before; d > 2*migrateStep {
			t.Fatalf("element %d moved %d slots, bound is %d", s.i, d, 2*migrateStep)
		}
	}

	sparse := New(1<<62, rand.New(rand.NewSource(1)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for sparse.i < 1<<16 {
		step(sparse)
		live, bytes := sparse.a.live, tableBytes(&sparse.a)
		if limit := max(64*live, 16*minSlots); bytes > limit {
			t.Fatalf("sparse draw: %d live keys in %d bytes, limit %d", live, bytes, limit)
		}
		if limit := max(40*live, 16*minSlots); sparse.a.old == nil && bytes > limit {
			t.Fatalf("sparse draw between doublings: %d live keys in %d bytes, limit %d", live, bytes, limit)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(sparse.i); per > 0.01 {
		t.Fatalf("sparse draw of %d: %.4f allocations a draw, want <= 0.01", sparse.i, per)
	}
	if int64(sparse.a.live) < sparse.i*99/100 {
		t.Fatalf("sparse draw of %d keeps only %d keys live: not the shape this test is about", sparse.i, sparse.a.live)
	}

	const n = 1 << 17
	full := New(n, rand.New(rand.NewSource(2)))
	peakLive, peakBytes := 0, 0
	for full.Remaining() > 0 {
		step(full)
		peakLive, peakBytes = max(peakLive, full.a.live), max(peakBytes, tableBytes(&full.a))
	}
	if peakLive < n/5 || peakBytes > 64*peakLive {
		t.Fatalf("full drain of %d: peak %d live keys, peak %d bytes", n, peakLive, peakBytes)
	}
	if full.a.live != 0 || len(full.a.cur)+len(full.a.old) > 4*minSlots {
		t.Fatalf("full drain of %d ends with %d live keys in %d+%d slots", n, full.a.live, len(full.a.cur), len(full.a.old))
	}
}
