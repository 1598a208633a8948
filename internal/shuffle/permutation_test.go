package shuffle

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// recorder is a fake answer set for Permutation: the answer at position j is
// j itself, and every position asked for is recorded, one call of at or
// batch at a time. batch may be replaced to act on its context.
type recorder struct {
	asked   []int64
	batches [][]int64
	workers []int
	onBatch func(ctx context.Context) error
}

func (r *recorder) at(j int64) (int64, error) {
	r.asked = append(r.asked, j)
	return j, nil
}

func (r *recorder) batch(ctx context.Context, js []int64, workers int) ([]int64, error) {
	r.asked = append(r.asked, js...)
	r.batches = append(r.batches, slices.Clone(js))
	r.workers = append(r.workers, workers)
	if r.onBatch != nil {
		if err := r.onBatch(ctx); err != nil {
			return nil, err
		}
	}
	return slices.Clone(js), nil
}

func (r *recorder) permutation(n, seed int64) *Permutation[int64] {
	return NewPermutation(n, rand.New(rand.NewSource(seed)), r.at, r.batch)
}

// nextPositions returns the positions of k Next calls on a fresh
// permutation of n with the given seed.
func nextPositions(t *testing.T, n, seed int64, k int) []int64 {
	t.Helper()
	var r recorder
	p := r.permutation(n, seed)
	for i := 0; i < k; i++ {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	return r.asked
}

// TestPermutationNextNDrawsLikeNext: NextN(k, w) asks for exactly the
// positions of k Next calls on the same seed, at 1 and 4 workers, in one
// batch per call, and hands the worker count to batch.
func TestPermutationNextNDrawsLikeNext(t *testing.T) {
	const n = 200
	ks := []int64{1, 7, 0, 32, 13}
	for _, w := range []int{1, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			var r recorder
			p := r.permutation(n, seed)
			var got []int64
			for _, k := range ks {
				ts := p.NextN(k, w)
				if int64(len(ts)) != k {
					t.Fatalf("w=%d seed %d: NextN(%d) returned %d answers", w, seed, k, len(ts))
				}
				got = append(got, ts...)
			}
			want := nextPositions(t, n, seed, len(got))
			if !slices.Equal(r.asked, want) || !slices.Equal(got, want) {
				t.Fatalf("w=%d seed %d: NextN asked %v and answered %v, Next asked %v", w, seed, r.asked, got, want)
			}
			if len(r.batches) != len(ks) {
				t.Fatalf("w=%d: %d batches for %d calls", w, len(r.batches), len(ks))
			}
			for _, bw := range r.workers {
				if bw != w {
					t.Fatalf("batch got %d workers, want %d", bw, w)
				}
			}
			if p.Remaining() != n-int64(len(got)) {
				t.Fatalf("Remaining = %d after %d answers of %d", p.Remaining(), len(got), n)
			}
		}
	}
}

// TestPermutationPastTheEnd: a NextN that reaches past the end returns the
// rest, every position exactly once overall, and then nothing; Next then
// reports the end.
func TestPermutationPastTheEnd(t *testing.T) {
	const n = 10
	var r recorder
	p := r.permutation(n, 3)
	first := p.NextN(7, 1)
	rest := p.NextN(7, 4)
	if len(first) != 7 || len(rest) != 3 {
		t.Fatalf("NextN(7) twice over 10 answers returned %d then %d", len(first), len(rest))
	}
	all := slices.Sorted(slices.Values(append(first, rest...)))
	for i, j := range all {
		if j != int64(i) {
			t.Fatalf("the permutation is not one of 0..%d: %v", n-1, all)
		}
	}
	if ts := p.NextN(7, 1); len(ts) != 0 {
		t.Fatalf("NextN after the end returned %v", ts)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("Next after the end reported an answer")
	}
	if p.Remaining() != 0 {
		t.Fatalf("Remaining = %d after the end", p.Remaining())
	}
}

// TestPermutationNegativeK: NextN with k < 0 yields nil, draws nothing and
// asks for nothing.
func TestPermutationNegativeK(t *testing.T) {
	var r recorder
	p := r.permutation(10, 1)
	if ts := p.NextN(-1, 1); ts != nil {
		t.Fatalf("NextN(-1) = %v", ts)
	}
	if ts, err := p.NextNContext(context.Background(), -5, 4); ts != nil || err != nil {
		t.Fatalf("NextNContext(-5) = %v, %v", ts, err)
	}
	if len(r.asked) != 0 || p.Remaining() != 10 {
		t.Fatalf("k < 0 asked for %v and left %d of 10", r.asked, p.Remaining())
	}
}

// TestPermutationCancelledBatch: a batch cancelled while its probes run
// returns ctx.Err() and consumes its draws — Remaining falls by k — and the
// next call continues the permutation where the cancelled one stopped.
func TestPermutationCancelledBatch(t *testing.T) {
	const n, k = 50, 6
	var r recorder
	p := r.permutation(n, 9)
	ctx, cancel := context.WithCancel(context.Background())
	r.onBatch = func(ctx context.Context) error {
		cancel() // the request is abandoned while its probes run
		return ctx.Err()
	}
	ts, err := p.NextNContext(ctx, k, 4)
	if !errors.Is(err, context.Canceled) || ts != nil {
		t.Fatalf("cancelled NextNContext = %v, %v", ts, err)
	}
	if p.Remaining() != n-k {
		t.Fatalf("Remaining = %d after a cancelled batch of %d, want %d", p.Remaining(), k, n-k)
	}
	r.onBatch = nil
	next := p.NextN(k, 1)
	want := nextPositions(t, n, 9, 2*k)
	if !slices.Equal(r.batches[0], want[:k]) || !slices.Equal(next, want[k:]) {
		t.Fatalf("cancelled batch drew %v and the next %v; Next draws %v", r.batches[0], next, want)
	}
	// A context cancelled before the call draws nothing.
	if _, err := p.NextNContext(ctx, k, 1); !errors.Is(err, context.Canceled) || p.Remaining() != n-2*k {
		t.Fatalf("pre-cancelled NextNContext: err %v, Remaining %d", err, p.Remaining())
	}
}
