package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestBucketLayout(t *testing.T) {
	// Every value must land in a bucket whose [lower, upper) range
	// contains it, and buckets must tile the axis without gaps.
	vals := []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	for _, v := range vals {
		i := bucketIdx(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, i)
		}
		if lo := bucketLower(i); v < lo {
			t.Errorf("value %d below bucket %d lower bound %d", v, i, lo)
		}
		if hi := bucketUpper(i); i != numBuckets-1 && v >= hi {
			t.Errorf("value %d at/above bucket %d upper bound %d", v, i, hi)
		}
	}
	for i := 1; i < numBuckets; i++ {
		if bucketLower(i) != bucketUpper(i-1) {
			t.Fatalf("gap between bucket %d upper %d and bucket %d lower %d",
				i-1, bucketUpper(i-1), i, bucketLower(i))
		}
	}
	// Relative bucket width bounds the quantile error: ≤ 1/16 above
	// the linear range.
	for i := histSub; i < numBuckets-1; i++ {
		lo, hi := bucketLower(i), bucketUpper(i)
		if rel := float64(hi-lo) / float64(lo); rel > 1.0/histSub+1e-9 {
			t.Fatalf("bucket %d relative width %g exceeds 1/%d", i, rel, histSub)
		}
	}
}

func TestHistogramRecordZeroAllocs(t *testing.T) {
	h := new(Histogram)
	d := 173 * time.Microsecond
	if n := testing.AllocsPerRun(1000, func() { h.Record(d) }); n != 0 {
		t.Fatalf("Histogram.Record allocates %v per call, want 0", n)
	}
	c := new(Counter)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per call, want 0", n)
	}
	g := new(Gauge)
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v per call, want 0", n)
	}
}

// recordedWorkload synthesizes a latency trace shaped like the
// serving tier's: a tight fast-path mode, a slower batched mode,
// and a heavy tail — then shifts regime midway, which is exactly
// where a sampling ring loses the early distribution.
func recordedWorkload(n int) []time.Duration {
	rng := rand.New(rand.NewSource(42))
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		var d time.Duration
		switch {
		case i >= (n*3)/5: // late regime: ~50x slower (e.g. cold cache)
			d = time.Duration(200_000 + rng.Intn(400_000))
		case rng.Float64() < 0.02: // tail
			d = time.Duration(1_000_000 + rng.Intn(9_000_000))
		case rng.Float64() < 0.3: // batched mode
			d = time.Duration(30_000 + rng.Intn(50_000))
		default: // fast path
			d = time.Duration(2_000 + rng.Intn(6_000))
		}
		out = append(out, d)
	}
	return out
}

func TestHistogramQuantileVsExact(t *testing.T) {
	// The satellite fix: histogram-derived quantiles must track exact
	// quantiles over a full recorded workload within the log-linear
	// bucket error bound, where the old 2048-sample ring only ever
	// saw the most recent window.
	work := recordedWorkload(50_000)
	h := new(Histogram)
	exact := make([]float64, len(work))
	for i, d := range work {
		h.Record(d)
		exact[i] = float64(d)
	}
	sort.Float64s(exact)

	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		got := float64(s.Quantile(q))
		want := stats.Quantile(exact, q)
		relErr := math.Abs(got-want) / want
		// 1/16 bucket width + interpolation slack + exact-vs-nearest
		// rank convention differences.
		if relErr > 0.10 {
			t.Errorf("q=%v: histogram %v exact %v (rel err %.3f)", q, time.Duration(got), time.Duration(want), relErr)
		}
	}
	if got, want := s.Count, uint64(len(work)); got != want {
		t.Fatalf("count %d want %d", got, want)
	}
	if got := time.Duration(s.MaxNs); got != work[maxIdx(work)] {
		t.Fatalf("max %v want %v", got, work[maxIdx(work)])
	}

	// Demonstrate the failure mode being fixed: a 2048-sample ring
	// over the same stream forgets the first regime entirely, so its
	// p50 lands in the late mode — off by an order of magnitude.
	ring := make([]float64, 0, 2048)
	next := 0
	for _, d := range work {
		if len(ring) < cap(ring) {
			ring = append(ring, float64(d))
		} else {
			ring[next] = float64(d)
			next = (next + 1) % cap(ring)
		}
	}
	sort.Float64s(ring)
	ringP50 := stats.Quantile(ring, 0.5)
	exactP50 := stats.Quantile(exact, 0.5)
	if math.Abs(ringP50-exactP50)/exactP50 < 1.0 {
		t.Fatalf("expected the sampling ring to be badly wrong on this workload (ring p50 %v, exact %v) — workload no longer exercises the regression",
			time.Duration(ringP50), time.Duration(exactP50))
	}
}

func maxIdx(ds []time.Duration) int {
	best := 0
	for i, d := range ds {
		if d > ds[best] {
			best = i
		}
	}
	return best
}

func TestHistogramConcurrent(t *testing.T) {
	h := new(Histogram)
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Intn(1 << 22)))
			}
		}(int64(g))
	}
	// Concurrent readers while recording: must be race-free and
	// never observe impossible states.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			if s.Quantile(0.99) < 0 {
				t.Error("negative quantile")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got, want := h.Count(), uint64(goroutines*per); got != want {
		t.Fatalf("count %d want %d", got, want)
	}
	var bucketTotal uint64
	s := h.Snapshot()
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != uint64(goroutines*per) {
		t.Fatalf("bucket total %d want %d", bucketTotal, goroutines*per)
	}
}

func TestHistogramEmptyAndEdge(t *testing.T) {
	h := new(Histogram)
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(-5) // clamps to 0
	h.Record(0)
	h.Record(time.Duration(math.MaxInt64))
	s = h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d", s.Count)
	}
	if q := s.Quantile(1.0); q != time.Duration(math.MaxInt64) {
		t.Fatalf("p100 %v want max int64", q)
	}
}
