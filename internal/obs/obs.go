// Package obs is the observability core: lock-free, fixed-footprint
// instruments (counters, gauges, log-bucketed latency histograms) and a
// small Prometheus-text registry that exposes them. The serving tier's
// registry creates its instruments here when it is constructed, so every
// build it runs — the boot build included — is recorded.
//
// Design constraints, in order:
//
//   - Recording must be 0 allocs and lock-free. Instruments are plain
//     structs of atomics; histograms have a fixed bucket layout so
//     Record is an index computation plus three atomic adds and a
//     CAS-max. testing.AllocsPerRun pins this in obs_test.go.
//   - Label sets are pre-registered: callers render labels once at
//     registration time and hold the instrument pointer. There is no
//     per-record map lookup, mutex, or label hashing anywhere.
//   - Histograms are exact-count. Buckets are
//     log-linear (HDR-style): 16 linear sub-buckets per power-of-two
//     octave, so any quantile is recovered with ≤ 1/16 relative
//     bucket-width error regardless of how long the window has been
//     accumulating. This replaces the old 2048-sample ring, which
//     silently degraded into a sparse sample under sustained load.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Log-linear bucket layout. Values are durations in nanoseconds.
// Buckets 0..15 are exact (1ns wide). Above that, each power-of-two
// octave [2^e, 2^(e+1)) is split into histSub linear sub-buckets, so
// the relative width of any bucket is at most 1/histSub.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits                 // 16 sub-buckets per octave
	numBuckets  = (64 - histSubBits + 1) * histSub // 976; covers all of uint64
)

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := uint(bits.Len64(v) - 1)
	return int(exp-histSubBits+1)<<histSubBits + int((v>>(exp-histSubBits))&(histSub-1))
}

// bucketLower returns the inclusive lower bound of bucket i, in ns.
func bucketLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := uint(i>>histSubBits) + histSubBits - 1
	sub := uint64(i & (histSub - 1))
	return 1<<exp + sub<<(exp-histSubBits)
}

// bucketUpper returns the exclusive upper bound of bucket i, in ns.
// The final bucket's bound saturates at MaxUint64.
func bucketUpper(i int) uint64 {
	if i == numBuckets-1 {
		return math.MaxUint64
	}
	if i < histSub {
		return uint64(i) + 1
	}
	exp := uint(i>>histSubBits) + histSubBits - 1
	sub := uint64(i&(histSub-1)) + 1
	return 1<<exp + sub<<(exp-histSubBits)
}

// Histogram is a fixed-footprint latency histogram: ~7.8 KiB of
// atomic bucket counters plus count, sum and max. Record is 0 allocs
// and lock-free; concurrent recorders never block each other.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	h.buckets[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a histogram, safe to walk
// without racing live recorders, so a single /metrics render sees one
// consistent view.
type HistSnapshot struct {
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
	Buckets [numBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	// Count/sum/max loaded after buckets so derived stats never see
	// more observations than buckets do.
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) with linear
// interpolation inside the containing bucket. The relative error is
// bounded by the bucket width: at most 1/16 of the value.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	// The snapshot's Count field can lag the bucket copies (recorders
	// bump buckets first); rank against what the buckets actually hold.
	var total uint64
	for i := range s.Buckets {
		total += s.Buckets[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range s.Buckets {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		if cum < rank {
			continue
		}
		lo, hi := float64(bucketLower(i)), float64(bucketUpper(i))
		frac := float64(rank-(cum-n)) / float64(n)
		v := lo + frac*(hi-lo)
		// The exact max beats the bucket's upper bound; it also keeps
		// the float64 result inside int64 range for the top octave.
		if s.MaxNs > 0 && v >= float64(s.MaxNs) {
			return time.Duration(s.MaxNs)
		}
		return time.Duration(v)
	}
	return time.Duration(s.MaxNs)
}
