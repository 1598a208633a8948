package renum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stats"
)

// fixtureDB builds a small 2-chain with a few dozen answers — big enough for
// chi-square power, small enough that trials stay cheap.
func fixtureDB(t testing.TB) (*Database, *CQ) {
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 120; i++ {
		r.MustInsert(Value(rng.Intn(12)), Value(rng.Intn(5)))
		s.MustInsert(Value(rng.Intn(5)), Value(rng.Intn(12)))
	}
	q := MustCQ("q", []string{"a", "b", "c"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")))
	return db, q
}

// TestAccessBatchEquivalentToAccess: for random permutations of [0, n) (and
// random multisets with duplicates), AccessBatch must return exactly the
// per-position Access answers, in order.
func TestAccessBatchEquivalentToAccess(t *testing.T) {
	db, q := fixtureDB(t)
	// One handle per fan-out: the default budget and explicit ones.
	var ras [4]*Handle
	for w := range ras {
		ras[w] = asParsed(t, db, q, WithWorkers(w))
	}
	n := ras[0].Count()
	if n == 0 {
		t.Fatal("fixture produced no answers")
	}
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		var js []int64
		if trial%2 == 0 {
			for _, j := range rng.Perm(int(n)) {
				js = append(js, int64(j))
			}
		} else {
			for i := 0; i < 500; i++ {
				js = append(js, rng.Int63n(n))
			}
		}
		ra := ras[trial%4] // exercise auto and explicit fan-out
		got, err := ra.AccessBatch(js)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range js {
			want, err := ra.Access(j)
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Equal(want) {
				t.Fatalf("trial %d: batch[%d] (j=%d) = %v want %v", trial, i, j, got[i], want)
			}
		}
	}
}

// TestPageParallelEquivalentToPage: a page assembled under any worker budget
// has the rows of the serial page, in the same order, for page shapes
// crossing the result boundaries.
func TestPageParallelEquivalentToPage(t *testing.T) {
	db, q := fixtureDB(t)
	ra := asParsed(t, db, q, WithWorkers(1))
	fanned := map[int]*Handle{}
	for _, workers := range []int{0, 3, 4} {
		fanned[workers] = asParsed(t, db, q, WithWorkers(workers))
	}
	n := ra.Count()
	cases := []struct{ offset, limit int64 }{
		{0, 0}, {0, 10}, {0, n}, {n / 2, n}, {n - 1, 5}, {n, 10}, {n + 5, 1},
		// offset+limit would overflow int64: must clamp, not panic.
		{5, math.MaxInt64}, {0, math.MaxInt64},
	}
	for _, tc := range cases {
		want, err := ra.Page(tc.offset, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		for workers, h := range fanned {
			got, err := h.Page(tc.offset, tc.limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("page(%d,%d,w=%d): %d rows, want %d", tc.offset, tc.limit, workers, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("page(%d,%d,w=%d) row %d diverged", tc.offset, tc.limit, workers, i)
				}
			}
		}
	}
	if _, err := fanned[4].Page(-1, 2); err != ErrOutOfBounds {
		t.Fatalf("negative offset: %v", err)
	}
}

// TestSampleNMatchesSampleK: SampleN draws its positions from the same lazy
// Fisher–Yates shuffle as the permutation cursor, so for equal seeds a
// k-sample must be k calls of Permutation.Next — which transfers the serial
// loop's uniform-without-replacement distribution to SampleN exactly.
func TestSampleNMatchesSampleK(t *testing.T) {
	db, q := fixtureDB(t)
	ra := asParsed(t, db, q)
	smp := mustSampler(t, ra)
	n := ra.Count()
	for _, k := range []int64{0, 1, 7, n, n + 50} {
		p, err := ra.Permute(rand.New(rand.NewSource(63)))
		if err != nil {
			t.Fatal(err)
		}
		var want []Tuple
		for int64(len(want)) < k {
			a, ok := p.Next()
			if !ok {
				break
			}
			want = append(want, a)
		}
		got, err := smp.SampleN(k, rand.New(rand.NewSource(63)))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != int64(len(want)) {
			t.Fatalf("k=%d: %d answers, want %d", k, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("k=%d position %d diverged", k, i)
			}
		}
		seen := map[string]bool{}
		for _, a := range got {
			key := a.Key()
			if seen[key] {
				t.Fatalf("k=%d: duplicate answer %v", k, a)
			}
			seen[key] = true
		}
	}
}

// chiSquareLimit mirrors internal/exp's ~6σ acceptance bound.
func chiSquareLimit(df int) float64 { return float64(df) + 6*math.Sqrt(2*float64(df)) }

// TestSampleNFirstAnswerUniform: the first answer of SampleN must be uniform
// over the answer set — the statistical guarantee that separates the
// paper's algorithms from heuristic shufflers, now checked on the batched
// parallel path.
func TestSampleNFirstAnswerUniform(t *testing.T) {
	db, q := fixtureDB(t)
	ra := asParsed(t, db, q)
	smp, inv := mustSampler(t, ra), mustInverter(t, ra)
	n := ra.Count()
	trials := int(40 * n)
	if trials < 2000 {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(64))
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		ts, err := smp.SampleN(3, rng)
		if err != nil || len(ts) == 0 {
			t.Fatal("sample failed")
		}
		j, ok := inv.InvertedAccess(ts[0])
		if !ok {
			t.Fatalf("sampled a non-answer: %v", ts[0])
		}
		counts[j]++
	}
	stat, df := stats.ChiSquareUniform(counts)
	if limit := chiSquareLimit(df); stat > limit {
		t.Fatalf("SampleN first answer not uniform: chi2=%.1f limit=%.1f (df=%d)", stat, limit, df)
	}
}

// TestPermutationNextNUniformAndComplete: the batched random-order
// enumerator must (a) emit every answer exactly once per permutation, and
// (b) have a uniform first answer across permutations — i.e. match the
// serial enumerator's distribution.
func TestPermutationNextNUniformAndComplete(t *testing.T) {
	db, q := fixtureDB(t)
	ra := asParsed(t, db, q)
	inv := mustInverter(t, ra)
	n := ra.Count()
	rng := rand.New(rand.NewSource(65))

	// Completeness: batched drain covers each answer exactly once.
	p, err := ra.Permute(rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, n)
	for {
		chunk := p.NextN(13)
		if len(chunk) == 0 {
			break
		}
		for _, a := range chunk {
			j, ok := inv.InvertedAccess(a)
			if !ok {
				t.Fatalf("emitted a non-answer: %v", a)
			}
			seen[j]++
		}
	}
	for j, c := range seen {
		if c != 1 {
			t.Fatalf("answer %d emitted %d times", j, c)
		}
	}

	// Uniformity of the first batched answer.
	trials := int(40 * n)
	if trials < 2000 {
		trials = 2000
	}
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		p, err := ra.Permute(rng)
		if err != nil {
			t.Fatal(err)
		}
		chunk := p.NextN(1)
		if len(chunk) != 1 {
			t.Fatal("empty first batch")
		}
		j, _ := inv.InvertedAccess(chunk[0])
		counts[j]++
	}
	stat, df := stats.ChiSquareUniform(counts)
	if limit := chiSquareLimit(df); stat > limit {
		t.Fatalf("NextN first answer not uniform: chi2=%.1f limit=%.1f (df=%d)", stat, limit, df)
	}
}

// TestDrainEverythingRequests: "give me everything" values of k must drain
// what exists instead of attempting a k-sized allocation.
func TestDrainEverythingRequests(t *testing.T) {
	db, q := fixtureDB(t)
	ra := asParsed(t, db, q)
	n := ra.Count()
	p, err := ra.Permute(rand.New(rand.NewSource(66)))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NextN(math.MaxInt64); int64(len(got)) != n {
		t.Fatalf("NextN(MaxInt64) drained %d of %d", len(got), n)
	}
	if got, err := mustSampler(t, ra).SampleN(math.MaxInt64, rand.New(rand.NewSource(66))); err != nil || int64(len(got)) != n {
		t.Fatalf("SampleN(MaxInt64) = %d answers, err %v", len(got), err)
	}

	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	dyn := mustSampler(t, mustOpen(t, db, dq, WithDynamic()))
	// With-replacement sampling: a huge k must not pre-allocate k slots.
	// 100k draws is enough to prove the capacity clamp without minutes of
	// sampling.
	if got, err := dyn.SampleN(100_000, rand.New(rand.NewSource(67))); err != nil || len(got) != 100_000 {
		t.Fatalf("dynamic SampleN drew %d, err %v", len(got), err)
	}
}

// TestSharedRandomAccessHammer drives the public API from many goroutines
// sharing one static handle (run with -race): the top-level mirror of the
// internal hammers.
func TestSharedRandomAccessHammer(t *testing.T) {
	db, q := fixtureDB(t)
	ra := asParsed(t, db, q, WithWorkers(2))
	smp := mustSampler(t, ra)
	n := ra.Count()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					if _, err := ra.Access(rng.Int63n(n)); err != nil {
						errs <- err
						return
					}
				case 1:
					js := make([]int64, 32)
					for k := range js {
						js[k] = rng.Int63n(n)
					}
					if _, err := ra.AccessBatch(js); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := smp.SampleN(8, rng); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := ra.Page(rng.Int63n(n), 16); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// fuzzFixture is built once: fuzzing re-enters the function per input.
var (
	fuzzOnce sync.Once
	fuzzRA   *Handle
)

// The query hangs two children, S and T, off R, so a batch's grouped probe
// splits positions over siblings as well as descending a chain.
func fuzzFixture(t testing.TB) *Handle {
	fuzzOnce.Do(func() {
		db, _ := fixtureDB(t)
		tr := db.MustCreate("T", "b", "d")
		for i := 0; i < 40; i++ {
			tr.MustInsert(Value(i%5), Value(i%7)) // 35 distinct tuples, 7 per b
		}
		q := MustCQ("q", []string{"a", "b", "c", "d"},
			NewAtom("R", V("a"), V("b")),
			NewAtom("S", V("b"), V("c")),
			NewAtom("T", V("b"), V("d")))
		fuzzRA = asParsed(t, db, q)
	})
	return fuzzRA
}

// FuzzAccessBatch decodes arbitrary bytes into a position slice — mixing
// in-range, out-of-range, negative, duplicate and empty shapes — and checks
// the AccessBatch contract against serial Access: the call fails with
// ErrOutOfBounds iff some position is out of range, and otherwise returns
// exactly the per-position answers.
func FuzzAccessBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 2, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		ra := fuzzFixture(t)
		n := ra.Count()
		var js []int64
		for len(data) >= 8 {
			raw := int64(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			// High bit set: fold into range so the success path is exercised
			// about half the time; otherwise keep the raw (usually wild) value.
			if raw < 0 && raw != math.MinInt64 {
				js = append(js, (-raw)%n)
			} else {
				js = append(js, raw)
			}
		}
		wantErr := false
		for _, j := range js {
			if j < 0 || j >= n {
				wantErr = true
				break
			}
		}
		got, err := ra.AccessBatch(js)
		if wantErr {
			if err != ErrOutOfBounds {
				t.Fatalf("js=%v: err=%v, want ErrOutOfBounds", js, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("js=%v: unexpected error %v", js, err)
		}
		if len(got) != len(js) {
			t.Fatalf("js=%v: %d answers", js, len(got))
		}
		for i, j := range js {
			want, err := ra.Access(j)
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Equal(want) {
				t.Fatalf("js=%v: position %d diverged", js, i)
			}
		}
	})
}
