package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		hits := make([]atomic.Int32, n)
		if err := ForEach(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachChunkCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		for _, n := range []int{0, 1, 2, 999, 1024} {
			hits := make([]atomic.Int32, n)
			if err := ForEachChunk(n, workers, func(lo, hi int) error {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEach(100, 4, func(i int) error {
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
}

func TestGroupCancelsAfterFailure(t *testing.T) {
	sentinel := errors.New("boom")
	g := newGroup(1) // serialize so scheduling order is deterministic
	var ran atomic.Int32
	g.Go(func() error { return sentinel })
	if err := g.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
	// After failure the group is canceled: a late Go is dropped.
	g.Go(func() error { ran.Add(1); return nil })
	g.wg.Wait()
	if ran.Load() != 0 {
		t.Fatal("task ran on a canceled group")
	}
}

func TestGroupRecoversPanic(t *testing.T) {
	g := newGroup(2)
	g.Go(func() error { panic("kaboom") })
	err := g.Wait()
	if err == nil {
		t.Fatal("panic was swallowed")
	}
}

func TestGroupLimitIsRespected(t *testing.T) {
	const limit = 3
	g := newGroup(limit)
	var cur, peak atomic.Int32
	for i := 0; i < 50; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent tasks, limit %d", p, limit)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

func TestForEachChunkCtxCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		n := 5000 // > ctxChunkSize, so the bounded-chunk path is exercised
		var hits atomic.Int64
		covered := make([]atomic.Int32, n)
		err := ForEachChunkCtx(context.Background(), n, workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
				hits.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hits.Load() != int64(n) {
			t.Fatalf("workers=%d: %d hits, want %d", workers, hits.Load(), n)
		}
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, covered[i].Load())
			}
		}
	}
}

// TestForEachChunkCtxStopsOnCancel: a context cancelled from inside a chunk
// stops the fleet before the index space is exhausted, returns ctx.Err(),
// and never runs a chunk after the cancellation was observable by every
// worker.
func TestForEachChunkCtxStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 1 << 20
		var done atomic.Int64
		err := ForEachChunkCtx(ctx, n, workers, func(lo, hi int) error {
			if done.Add(int64(hi-lo)) > ctxChunkSize {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// At most one in-flight chunk per worker can complete after cancel.
		if max := int64(ctxChunkSize) * int64(workers+2); done.Load() > max {
			t.Fatalf("workers=%d: %d indexes ran after cancellation (cap %d)", workers, done.Load(), max)
		}
	}
}

// TestForEachChunkCtxPreCancelled: a context cancelled before the call runs
// nothing at all.
func TestForEachChunkCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachChunkCtx(ctx, 100, 4, func(lo, hi int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("chunk ran under a pre-cancelled context")
	}
}

// TestForEachChunkCtxBackgroundMatchesPlain: a never-cancellable context is
// the plain ForEachChunk (same chunk geometry, no per-chunk ctx tax).
func TestForEachChunkCtxBackgroundMatchesPlain(t *testing.T) {
	var a, b []int
	_ = ForEachChunk(10_000, 1, func(lo, hi int) error { a = append(a, lo, hi); return nil })
	_ = ForEachChunkCtx(context.Background(), 10_000, 1, func(lo, hi int) error { b = append(b, lo, hi); return nil })
	if len(a) != len(b) {
		t.Fatalf("chunk geometry differs: %d vs %d bounds", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk bounds differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
