// Benchmarks regenerating the measurements behind every table and figure of
// the paper (one benchmark family per artifact; internal/exp's package doc
// is the index, the README's "Testing" section says how CI runs them), plus
// the ablation benchmarks.
//
// Scale: REPRO_BENCH_SF overrides the TPC-H scale factor (default 0.01).
// Run with: go test -bench=. -benchmem
package renum

import (
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/dynaccess"
	"repro/internal/fenwick"
	"repro/internal/mcucq"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/sample"
	"repro/internal/shuffle"
	"repro/internal/synth"
	"repro/internal/tpch"
	"repro/internal/tpchq"
	"repro/internal/unionenum"
)

var (
	benchOnce sync.Once
	benchDB   *relation.Database
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SF"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.01
}

func db(b *testing.B) *relation.Database {
	benchOnce.Do(func() {
		d, err := tpch.Generate(tpch.Config{ScaleFactor: benchScale(), Seed: 1})
		if err != nil {
			panic(err)
		}
		if err := tpchq.PrepareDerived(d); err != nil {
			panic(err)
		}
		benchDB = d
	})
	return benchDB
}

func prepare(b *testing.B, q *query.CQ) *cqenum.CQ {
	b.Helper()
	c, err := cqenum.Prepare(db(b), q, reduce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// --- Figure 1: total enumeration time, REnum(CQ) vs Sample(EW) -------------
//
// One op = preprocessing + enumerating 10% of the answers (the regime where
// the paper's Figure 1 begins separating the algorithms).

func BenchmarkFig1(b *testing.B) {
	for _, q := range tpchq.CQs() {
		q := q
		b.Run(q.Name+"/REnumCQ", func(b *testing.B) {
			d := db(b)
			for i := 0; i < b.N; i++ {
				c, err := cqenum.Prepare(d, q, reduce.Options{})
				if err != nil {
					b.Fatal(err)
				}
				k := c.Count() / 10
				perm := c.Permute(rand.New(rand.NewSource(int64(i))))
				for j := int64(0); j < k; j++ {
					perm.Next()
				}
			}
		})
		b.Run(q.Name+"/SampleEW", func(b *testing.B) {
			d := db(b)
			for i := 0; i < b.N; i++ {
				c, err := cqenum.Prepare(d, q, reduce.Options{})
				if err != nil {
					b.Fatal(err)
				}
				k := c.Count() / 10
				s := sample.New(c.Index, sample.EW, rand.New(rand.NewSource(int64(i))))
				for j := int64(0); j < k; j++ {
					s.Next()
				}
			}
		})
	}
}

// --- Figures 2/3/7: per-answer delay ----------------------------------------
//
// One op = producing one answer (ns/op ≈ the delay the paper box-plots).
// Fig2 measures the full-enumeration regime; Fig3 the first-50% regime
// (Sample(EW)'s duplicate rate is what separates them).

func benchDelay(b *testing.B, fraction float64, mk func(c *cqenum.CQ, seed int64) func() bool) {
	for _, q := range tpchq.CQs() {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			c := prepare(b, q)
			limit := int64(float64(c.Count()) * fraction)
			if limit < 1 {
				limit = 1
			}
			seed := int64(0)
			next := mk(c, seed)
			produced := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if produced >= limit {
					b.StopTimer()
					seed++
					next = mk(c, seed)
					produced = 0
					b.StartTimer()
				}
				if !next() {
					b.Fatal("enumeration ended early")
				}
				produced++
			}
		})
	}
}

func BenchmarkFig2DelayREnumCQ(b *testing.B) {
	benchDelay(b, 1.0, func(c *cqenum.CQ, seed int64) func() bool {
		p := c.Permute(rand.New(rand.NewSource(seed)))
		return func() bool { _, ok := p.Next(); return ok }
	})
}

func BenchmarkFig2DelaySampleEW(b *testing.B) {
	benchDelay(b, 1.0, func(c *cqenum.CQ, seed int64) func() bool {
		s := sample.New(c.Index, sample.EW, rand.New(rand.NewSource(seed)))
		return func() bool { _, ok := s.Next(); return ok }
	})
}

func BenchmarkFig3DelayREnumCQ(b *testing.B) {
	benchDelay(b, 0.5, func(c *cqenum.CQ, seed int64) func() bool {
		p := c.Permute(rand.New(rand.NewSource(seed)))
		return func() bool { _, ok := p.Next(); return ok }
	})
}

func BenchmarkFig3DelaySampleEW(b *testing.B) {
	benchDelay(b, 0.5, func(c *cqenum.CQ, seed int64) func() bool {
		s := sample.New(c.Index, sample.EW, rand.New(rand.NewSource(seed)))
		return func() bool { _, ok := s.Next(); return ok }
	})
}

// --- Figures 4a/4b: UCQ enumeration ------------------------------------------
//
// One op = preprocessing + full random-order enumeration of the union.

func BenchmarkFig4a(b *testing.B) {
	for _, u := range tpchq.UCQs() {
		u := u
		b.Run(u.Name+"/CumulativeCQ", func(b *testing.B) {
			d := db(b)
			for i := 0; i < b.N; i++ {
				for _, q := range u.Disjuncts {
					c, err := cqenum.Prepare(d, q, reduce.Options{})
					if err != nil {
						b.Fatal(err)
					}
					perm := c.Permute(rand.New(rand.NewSource(int64(i))))
					for {
						if _, ok := perm.Next(); !ok {
							break
						}
					}
				}
			}
		})
		b.Run(u.Name+"/REnumUCQ", func(b *testing.B) {
			d := db(b)
			for i := 0; i < b.N; i++ {
				e, err := unionenum.NewFromUCQ(d, u, rand.New(rand.NewSource(int64(i))), reduce.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
		b.Run(u.Name+"/REnumMCUCQ", func(b *testing.B) {
			d := db(b)
			for i := 0; i < b.N; i++ {
				m, err := mcucq.New(d, u, mcucq.Options{})
				if err != nil {
					b.Fatal(err)
				}
				perm := m.Permute(rand.New(rand.NewSource(int64(i))))
				for {
					if _, ok := perm.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkFig4b measures the 60%-regime where the paper observes
// REnum(mcUCQ) overtaking REnum(UCQ) on QS7∪QC7.
func BenchmarkFig4b(b *testing.B) {
	u := tpchq.UnionQ7()
	b.Run("REnumUCQ60", func(b *testing.B) {
		d := db(b)
		for i := 0; i < b.N; i++ {
			e, err := unionenum.NewFromUCQ(d, u, rand.New(rand.NewSource(int64(i))), reduce.Options{})
			if err != nil {
				b.Fatal(err)
			}
			// 60% of the union: first compute the union size cheaply from a
			// previous full drain is overkill per-op; drain 60% of Remaining
			// upper bound instead (stable across iterations).
			k := e.Remaining() * 6 / 10
			for j := int64(0); j < k; j++ {
				if _, ok := e.Next(); !ok {
					break
				}
			}
		}
	})
	b.Run("REnumMCUCQ60", func(b *testing.B) {
		d := db(b)
		for i := 0; i < b.N; i++ {
			m, err := mcucq.New(d, u, mcucq.Options{})
			if err != nil {
				b.Fatal(err)
			}
			k := m.Count() * 6 / 10
			perm := m.Permute(rand.New(rand.NewSource(int64(i))))
			for j := int64(0); j < k; j++ {
				perm.Next()
			}
		}
	})
}

// --- Figure 5: rejection overhead of REnum(UCQ) -----------------------------
//
// One op = a full instrumented drain of QS7∪QC7; the rejected-iteration share
// is reported as a custom metric.

func BenchmarkFig5Rejections(b *testing.B) {
	d := db(b)
	u := tpchq.UnionQ7()
	var rejects, answers int64
	for i := 0; i < b.N; i++ {
		e, err := unionenum.NewFromUCQ(d, u, rand.New(rand.NewSource(int64(i))), reduce.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := e.Next(); !ok {
				break
			}
			answers++
		}
		rejects += e.Rejections
	}
	if answers > 0 {
		b.ReportMetric(float64(rejects)/float64(answers), "rejections/answer")
	}
}

// --- Figures 6/8 and appendix B.2.3: the other baselines ---------------------
//
// One op = one distinct answer from the given sampler on Q3 (Q3 is the query
// the appendix uses for OE and RS).

func benchSamplerDraws(b *testing.B, m sample.Method) {
	c := prepare(b, tpchq.Q3())
	limit := c.Count() / 10
	if limit < 1 {
		limit = 1
	}
	s := sample.New(c.Index, m, rand.New(rand.NewSource(1)))
	s.MaxTrialsPerDraw = 1_000_000
	produced := int64(0)
	seed := int64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if produced >= limit {
			b.StopTimer()
			seed++
			s = sample.New(c.Index, m, rand.New(rand.NewSource(seed)))
			s.MaxTrialsPerDraw = 1_000_000
			produced = 0
			b.StartTimer()
		}
		if _, ok := s.Next(); !ok {
			b.Skipf("sampler %v exhausted its trial budget", m)
		}
		produced++
	}
	b.ReportMetric(float64(s.Trials)/float64(produced+1), "trials/answer")
}

func BenchmarkFig6SampleEO(b *testing.B) { benchSamplerDraws(b, sample.EO) }
func BenchmarkFig8SampleOE(b *testing.B) { benchSamplerDraws(b, sample.OE) }
func BenchmarkRSSampleRS(b *testing.B)   { benchSamplerDraws(b, sample.RS) }

// --- Ablations ---------------------------------------------------------------

// Ablation 1 (binary search vs linear scan inside buckets) is
// BenchmarkAblationBucketSearch in internal/access, beside the linear scan.

// Ablation 2: Fisher–Yates over random access (Theorem 3.7) vs running
// Algorithm 5 on the singleton union — why the direct approach is right for
// single CQs.
func BenchmarkAblationPermutationStrategy(b *testing.B) {
	q := tpchq.Q0()
	b.Run("FisherYates", func(b *testing.B) {
		c := prepare(b, q)
		p := c.Permute(rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := p.Next(); !ok {
				b.StopTimer()
				p = c.Permute(rand.New(rand.NewSource(int64(i))))
				b.StartTimer()
			}
		}
	})
	b.Run("Algorithm5Singleton", func(b *testing.B) {
		c := prepare(b, q)
		e := unionenum.New([]unionenum.Set{c.NewDeletableSet()}, rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := e.Next(); !ok {
				b.StopTimer()
				e = unionenum.New([]unionenum.Set{c.NewDeletableSet()}, rand.New(rand.NewSource(int64(i))))
				b.StartTimer()
			}
		}
	})
}

// Ablation 3: Algorithm 5's owner-deletion versus plain
// sampling-with-rejection of already-seen answers (Karp–Luby style) on an
// overlapping union. One op = one emitted answer of QS7∪QC7.
func BenchmarkAblationKarpLuby(b *testing.B) {
	u := tpchq.UnionQ7()
	d := db(b)
	b.Run("OwnerDeletion", func(b *testing.B) {
		e, err := unionenum.NewFromUCQ(d, u, rand.New(rand.NewSource(1)), reduce.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := e.Next(); !ok {
				b.StopTimer()
				e, err = unionenum.NewFromUCQ(d, u, rand.New(rand.NewSource(int64(i))), reduce.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	})
	b.Run("RejectSeen", func(b *testing.B) {
		// Karp–Luby sampling (uniform over the union with replacement via
		// weighted disjunct choice + ownership test) with seen-set rejection.
		mk := func(seed int64) (func() (relation.Tuple, bool), int64) {
			var cs []*cqenum.CQ
			var total int64
			for _, q := range u.Disjuncts {
				c, err := cqenum.Prepare(d, q, reduce.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cs = append(cs, c)
				total += c.Count()
			}
			rng := rand.New(rand.NewSource(seed))
			seen := make(map[string]bool)
			return func() (relation.Tuple, bool) {
				for {
					r := rng.Int63n(total)
					var chosen int
					for i, c := range cs {
						if r < c.Count() {
							chosen = i
							break
						}
						r -= c.Count()
					}
					t, err := cs[chosen].Index.Access(r)
					if err != nil {
						return nil, false
					}
					// Ownership: emit only via the first containing disjunct.
					owner := -1
					for i, c := range cs {
						if c.Index.Contains(t) {
							owner = i
							break
						}
					}
					if owner != chosen {
						continue
					}
					k := t.Key()
					if seen[k] {
						continue
					}
					seen[k] = true
					return t, true
				}
			}, total
		}
		next, total := mk(1)
		produced := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if produced >= total*9/10 { // the tail is coupon-collector hell
				b.StopTimer()
				next, total = mk(int64(i))
				produced = 0
				b.StartTimer()
			}
			if _, ok := next(); !ok {
				b.Fatal("sampler died")
			}
			produced++
		}
	})
}

// Ablation 4 (the fenced Compute-k vs the appendix's Largest formulation) is
// BenchmarkAblationLargest in internal/mcucq, beside the Largest oracle.

// Ablation 5: Yannakakis full reduction on vs off (weights absorb dangling
// tuples either way; the reduction trades preprocessing work for smaller
// buckets). One op = preprocessing + 1000 random accesses on Q9 (the query
// with the most dangling potential: orders without customers etc.).
func BenchmarkAblationFullReduce(b *testing.B) {
	d := db(b)
	q := tpchq.Q9()
	for _, mode := range []struct {
		name string
		opts reduce.Options
	}{
		{"WithFullReduce", reduce.Options{}},
		{"SkipFullReduce", reduce.Options{SkipFullReduce: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := cqenum.Prepare(d, q, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(i)))
				n := c.Count()
				for j := 0; j < 1000; j++ {
					if _, err := c.Index.Access(rng.Int63n(n)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// Ablation 6: sampler robustness to skew — on Zipf-skewed star joins the
// exact-weight sampler (EW) is unaffected while the rejection-based EO
// degrades with the skew parameter. One op = one accepted uniform sample.
func BenchmarkAblationSkew(b *testing.B) {
	for _, skew := range []float64{0, 1.5, 2.5} {
		db2, q, err := synth.Star(synth.Config{
			Relations: 2, TuplesPerRelation: 20000, KeyDomain: 500, Seed: 5, SkewS: skew,
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err := cqenum.Prepare(db2, q, reduce.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if c.Count() == 0 {
			continue
		}
		for _, m := range []sample.Method{sample.EW, sample.EO} {
			m := m
			b.Run(fmt.Sprintf("skew=%.1f/%s", skew, m), func(b *testing.B) {
				s := sample.New(c.Index, m, rand.New(rand.NewSource(1)))
				for i := 0; i < b.N; i++ {
					if _, ok := s.Sample(); !ok {
						b.Fatal("sampler failed")
					}
				}
				b.ReportMetric(float64(s.Trials)/float64(b.N), "trials/sample")
			})
		}
	}
}

// --- Parallel build and batched serving ---------------------------------------

// BenchmarkParallelBuild measures Algorithm 2 index construction over a
// large synthetic star join — the shape with the most inter-node
// parallelism (every leaf is independent) — serial vs the wave-scheduled
// parallel build. One op = one full index build over the prebuilt reduced
// full join; the reduction itself is outside the timed region for both
// variants. On a multi-core machine the Parallel variant should approach
// leaf_time + root_time instead of the serial sum.
func BenchmarkParallelBuild(b *testing.B) {
	db2, q, err := synth.Star(synth.Config{
		Relations: 6, TuplesPerRelation: 120_000, KeyDomain: 8_000, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	fj, err := reduce.BuildFullJoin(db2, q, reduce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := access.NewWithOptions(fj, access.BuildOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("Parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := access.NewWithOptions(fj, access.BuildOptions{
				Workers: runtime.GOMAXPROCS(0), SerialThreshold: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAccessBatch compares three ways of answering 1024 random probes
// against one shared TPC-H index: one-at-a-time Access, the batched
// AccessBatch (internal fan-out), and concurrent clients each running
// batches (b.RunParallel — the serving-under-load shape). ns/op is per
// 1024-probe request.
func BenchmarkAccessBatch(b *testing.B) {
	c := prepare(b, tpchq.Q3())
	n := c.Count()
	const batch = 1024
	mkJS := func(rng *rand.Rand) []int64 {
		js := make([]int64, batch)
		for i := range js {
			js[i] = rng.Int63n(n)
		}
		return js
	}
	b.Run("SerialLoop", func(b *testing.B) {
		rng := rand.New(rand.NewSource(13))
		js := mkJS(rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, j := range js {
				if _, err := c.Index.Access(j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Batched", func(b *testing.B) {
		rng := rand.New(rand.NewSource(13))
		js := mkJS(rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One worker: the batch mechanism itself — one grouped chunk,
			// three allocations — against the loop above. With workers = 0
			// the chunk count, and so allocs/op, followed nproc;
			// ConcurrentClients below is where parallelism is measured.
			if _, err := c.Index.AccessBatch(js, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ConcurrentClients", func(b *testing.B) {
		var seed atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(13 + seed.Add(1)))
			js := mkJS(rng)
			for pb.Next() {
				// Each client batches but lets the shared pool stay fair:
				// workers=1 per request, parallelism across clients.
				if _, err := c.Index.AccessBatch(js, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkSampleN measures batched distinct sampling (k=256) against the
// serial k × Next loop (the SampleK arm) it must be distribution-identical
// to.
func BenchmarkSampleN(b *testing.B) {
	c := prepare(b, tpchq.Q3())
	const k = 256
	b.Run("SampleK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := c.Permute(rand.New(rand.NewSource(int64(i))))
			for j := 0; j < k; j++ {
				if _, ok := p.Next(); !ok {
					break
				}
			}
		}
	})
	b.Run("SampleN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := c.Permute(rand.New(rand.NewSource(int64(i))))
			if got := p.NextN(k, 0); len(got) == 0 && c.Count() > 0 {
				b.Fatal("empty batch")
			}
		}
	})
}

// --- Core-structure micro-benchmarks -----------------------------------------

func BenchmarkAccess(b *testing.B) {
	for _, q := range tpchq.CQs() {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			c := prepare(b, q)
			n := c.Count()
			rng := rand.New(rand.NewSource(4))
			buf := make(relation.Tuple, len(c.Index.Head()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Index.AccessInto(rng.Int63n(n), buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeAllocs pins the allocation profile of the three probe
// primitives on a real TPC-H index (run with -benchmem): AccessInto and
// InvertedAccess must report 0 allocs/op, Access exactly 1 (the returned
// answer). This is the per-probe cost that AccessBatch, SampleN and the
// batched serving paths inherit.
func BenchmarkProbeAllocs(b *testing.B) {
	c := prepare(b, tpchq.Q3())
	n := c.Count()
	rng := rand.New(rand.NewSource(6))
	b.Run("AccessInto", func(b *testing.B) {
		buf := make(relation.Tuple, len(c.Index.Head()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Index.AccessInto(rng.Int63n(n), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Access", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Index.Access(rng.Int63n(n)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InvertedAccess", func(b *testing.B) {
		answers := make([]relation.Tuple, 1024)
		for i := range answers {
			t, err := c.Index.Access(rng.Int63n(n))
			if err != nil {
				b.Fatal(err)
			}
			answers[i] = t
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Index.InvertedAccess(answers[i%len(answers)]); !ok {
				b.Fatal("answer vanished")
			}
		}
	})
}

func BenchmarkInvertedAccess(b *testing.B) {
	c := prepare(b, tpchq.Q3())
	n := c.Count()
	rng := rand.New(rand.NewSource(5))
	answers := make([]relation.Tuple, 1024)
	for i := range answers {
		t, err := c.Index.Access(rng.Int63n(n))
		if err != nil {
			b.Fatal(err)
		}
		answers[i] = t
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Index.InvertedAccess(answers[i%len(answers)]); !ok {
			b.Fatal("answer vanished")
		}
	}
}

func BenchmarkPreprocessing(b *testing.B) {
	d := db(b)
	for _, q := range tpchq.CQs() {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cqenum.Prepare(d, q, reduce.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreprocessingUCQ is BenchmarkPreprocessing for the three paper
// unions through Open: one op = plan + every disjunct and intersection
// preparation (13 CQ builds over the three unions) + the mc-UCQ assembly.
func BenchmarkPreprocessingUCQ(b *testing.B) {
	d := db(b)
	for _, u := range tpchq.UCQs() {
		u := u
		b.Run(u.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Open(d, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstantiate isolates the first preprocessing step: one op =
// instantiating every atom of the query (a columnar select-and-copy per
// atom — allocations are a handful of column slices, never per tuple).
func BenchmarkInstantiate(b *testing.B) {
	d := db(b)
	for _, q := range []*query.CQ{tpchq.Q3(), tpchq.QS7()} {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reduce.InstantiateAll(d, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Dynamic-index extension benchmarks --------------------------------------

// q3Full is Q3 with every variable in the head (the dynamic index requires a
// projection-free query).
func q3Full() *query.CQ {
	return query.MustCQ("Q3full",
		[]string{"ok", "ck", "cn", "cnk", "lpk", "lsk", "ln"},
		query.NewAtom("customer", query.V("ck"), query.V("cn"), query.V("cnk")),
		query.NewAtom("orders", query.V("ok"), query.V("ck")),
		query.NewAtom("lineitem", query.V("ok"), query.V("lpk"), query.V("lsk"), query.V("ln")),
	)
}

func BenchmarkDynamicBuild(b *testing.B) {
	d := db(b)
	q := q3Full()
	for i := 0; i < b.N; i++ {
		if _, err := dynaccess.New(d, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicInsertDelete(b *testing.B) {
	d := db(b)
	idx, err := dynaccess.New(d, q3Full())
	if err != nil {
		b.Fatal(err)
	}
	orders, err := d.Relation("orders")
	if err != nil {
		b.Fatal(err)
	}
	maxOrder := int64(orders.Len())
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Churn lineitems of a random existing order.
		tu := relation.Tuple{
			relation.Value(1 + rng.Int63n(maxOrder)),
			relation.Value(1 + rng.Int63n(1000)),
			relation.Value(1 + rng.Int63n(100)),
			relation.Value(90 + rng.Int63n(5)),
		}
		if i%2 == 0 {
			if _, err := idx.Insert("lineitem", tu); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := idx.Delete("lineitem", tu); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDynamicAccess(b *testing.B) {
	d := db(b)
	idx, err := dynaccess.New(d, q3Full())
	if err != nil {
		b.Fatal(err)
	}
	n := idx.Count()
	if n == 0 {
		b.Skip("empty")
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Access(rng.Int63n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFenwick(b *testing.B) {
	b.Run("Add", func(b *testing.B) {
		tr := fenwick.New(make([]int64, 1<<16))
		rng := rand.New(rand.NewSource(8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Add(rng.Intn(1<<16), 1)
		}
	})
	b.Run("FindPrefix", func(b *testing.B) {
		vals := make([]int64, 1<<16)
		for i := range vals {
			vals[i] = int64(i % 7)
		}
		tr := fenwick.New(vals)
		total := tr.Total()
		rng := rand.New(rand.NewSource(9))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tr.FindPrefix(rng.Int63n(total)) < 0 {
				b.Fatal("lost target")
			}
		}
	})
}

func BenchmarkCountUnionMCUCQ(b *testing.B) {
	d := db(b)
	for _, u := range tpchq.UCQs() {
		u := u
		b.Run(u.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := mcucq.New(d, u, mcucq.Options{})
				if err != nil {
					b.Fatal(err)
				}
				_ = m.Count()
			}
		})
	}
}

func init() {
	// Make -bench output self-describing about the data scale.
	if os.Getenv("REPRO_BENCH_SF") == "" {
		fmt.Fprintf(os.Stderr, "bench: TPC-H scale factor %v (override with REPRO_BENCH_SF)\n", 0.01)
	}
}

// coldStart is the instance a process pays for before it can serve its
// first probe: the 493k-answer golden star (the one the enumeration-order
// hash pins), saved once as a snapshot and dumped as the CSV files a daemon
// would boot from.
type coldStart struct {
	db    *Database
	q     *CQ
	count int64
	snap  string   // snapshot catalog holding the one entry
	csvs  []string // one CSV per relation, header = schema
}

func newColdStart(tb testing.TB) *coldStart {
	tb.Helper()
	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 200, KeyDomain: 30, SkewS: 1.3, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := Open(db, q)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	cs := &coldStart{db: db, q: q, count: h.Count(), snap: filepath.Join(dir, "coldstart.snap")}
	if err := SaveSnapshot(cs.snap, db, 0, []CatalogEntry{{Name: q.Name, Q: q, H: h}}); err != nil {
		tb.Fatal(err)
	}
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			tb.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(strings.Join(rel.Schema(), ","))
		sb.WriteByte('\n')
		row := make(relation.Tuple, rel.Arity())
		for i := 0; i < rel.Len(); i++ {
			rel.ReadTuple(i, row)
			for a, v := range row {
				if a > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.FormatInt(int64(v), 10))
			}
			sb.WriteByte('\n')
		}
		p := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			tb.Fatal(err)
		}
		cs.csvs = append(cs.csvs, p)
	}
	return cs
}

// bootCSV is the daemon's boot path before persistent snapshots: read the
// CSV tables from disk, intern every cell, and run the full preprocessing
// (what `renumd -table ... -query ...` pays). It mirrors internal/load's CSV
// dialect (header = schema, every cell interned); this package cannot import
// internal/load — it imports this package — so the relevant lines live here.
func (cs *coldStart) bootCSV(tb testing.TB) {
	dbi := NewDatabase()
	for _, p := range cs.csvs {
		f, err := os.Open(p)
		if err != nil {
			tb.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			tb.Fatal(err)
		}
		rel, err := dbi.Create(strings.TrimSuffix(filepath.Base(p), ".csv"), rows[0]...)
		if err != nil {
			tb.Fatal(err)
		}
		for _, rowCells := range rows[1:] {
			tup := make(relation.Tuple, len(rowCells))
			for i, cell := range rowCells {
				tup[i] = dbi.Intern(cell)
			}
			if _, err := rel.Insert(tup); err != nil {
				tb.Fatal(err)
			}
		}
	}
	cs.open(tb, dbi)
}

// open preprocesses the query over db and checks the answer count.
func (cs *coldStart) open(tb testing.TB, db *Database) {
	h, err := Open(db, cs.q)
	if err != nil {
		tb.Fatal(err)
	}
	if h.Count() != cs.count {
		tb.Fatalf("count %d, want %d", h.Count(), cs.count)
	}
}

// BenchmarkColdStart measures what a process pays before it can serve its
// first probe, on newColdStart's instance:
//
//   - FromCSV: bootCSV, the CSV boot plus the full preprocessing;
//   - Preprocess: preprocessing alone, over already-resident relations —
//     the strict lower bound of any rebuild;
//   - FromSnapshot: renum.OpenSnapshot on a catalog built once — open,
//     checksum and validate the sections, wire the handles. No parsing, no
//     hashing, no reduction, no weight computation.
//
// The FromCSV/FromSnapshot ratio is the headline number of the snapshot
// subsystem (it is what a restart actually saves).
// TestSnapshotRestoreAllocatesATenthOfCSVBoot pins it in allocations.
func BenchmarkColdStart(b *testing.B) {
	cs := newColdStart(b)
	b.Run("FromCSV", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs.bootCSV(b)
		}
	})
	b.Run("Preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs.open(b, cs.db)
		}
	})
	b.Run("FromSnapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cat, err := OpenSnapshot(cs.snap)
			if err != nil {
				b.Fatal(err)
			}
			if got := cat.Entries()[0].H.Count(); got != cs.count {
				b.Fatalf("count %d, want %d", got, cs.count)
			}
			cat.Close()
		}
	})
}

// drainFixture is the skewed star join (≈493k answers) the full-drain
// benchmarks share.
func drainFixture(b *testing.B) (*Database, *CQ) {
	b.Helper()
	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 200, KeyDomain: 30, SkewS: 1.3, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	return db, q
}

// BenchmarkIterAll measures the iterator-native enumeration surface: one op
// drains the full enumeration (≈493k answers) of a skewed star join.
// Handle.All resolves its positions in chunks of up to 64 with one batched
// probe and one backing array each, so it allocates once per 64 answers.
func BenchmarkIterAll(b *testing.B) {
	db2, q := drainFixture(b)
	h, err := Open(db2, q)
	if err != nil {
		b.Fatal(err)
	}
	n := h.Count()

	b.Run("HandleAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var drained int64
			for _, err := range h.All() {
				if err != nil {
					b.Fatal(err)
				}
				drained++
			}
			if drained != n {
				b.Fatalf("drained %d of %d", drained, n)
			}
		}
	})
	b.Run("HandleAllContext", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var drained int64
			for _, err := range h.AllContext(ctx) {
				if err != nil {
					b.Fatal(err)
				}
				drained++
			}
			if drained != n {
				b.Fatalf("drained %d of %d", drained, n)
			}
		}
	})
}

// BenchmarkShufflerNext is one element of a sparse draw — the shape of a
// cursor over a large answer set: every drawn position stays live, so the
// shuffler's table only grows. Growth allocates a power-of-two array a
// logarithmic number of times, which amortizes to 0 allocs/op.
func BenchmarkShufflerNext(b *testing.B) {
	s := shuffle.New(1<<62, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("permutation of 2^62 ended")
		}
	}
}

// BenchmarkShuffledDrain is the paper's loop end to end: one op is a full
// Handle.Shuffled drain of BenchmarkIterAll's 493k-answer star join. A
// chunk of up to 64 answers costs one allocation, its backing array; beside
// allocs/op the benchmark reports allocs/answer and fails above 0.1 — one
// allocation per answer is what the drain used to cost.
func BenchmarkShuffledDrain(b *testing.B) {
	db2, q := drainFixture(b)
	h, err := Open(db2, q)
	if err != nil {
		b.Fatal(err)
	}
	benchDrains(b, h.Count(), func(i int, answer func()) {
		for _, err := range h.Shuffled(rand.New(rand.NewSource(int64(i)))) {
			if err != nil {
				b.Fatal(err)
			}
			answer()
		}
	})
}

// benchDrains times b.N full drains — drain(i, answer) calls answer once per
// answer it emits, and must emit n — and reports ns/answer and allocs/answer
// beside the per-op figures, failing above 0.1 allocations per answer.
func benchDrains(b *testing.B, n int64, drain func(i int, answer func())) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var drained int64
		drain(i, func() { drained++ })
		if drained != n {
			b.Fatalf("drained %d of %d", drained, n)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	answers := float64(int64(b.N) * n)
	perAnswer := float64(after.Mallocs-before.Mallocs) / answers
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/answers, "ns/answer")
	b.ReportMetric(perAnswer, "allocs/answer")
	if perAnswer > 0.1 {
		b.Fatalf("%.3f allocs/answer, want at most 0.1", perAnswer)
	}
}

// BenchmarkUnionDrain is the second half of the paper end to end: one op is
// a full random-order drain of the three TPC-H unions, by the mc-UCQ
// structure (Handle.Shuffled: Algorithm 7 over rank fences) and by
// Algorithm 5 over the disjuncts' deletable sets — what the benchmark's
// ucq_answers_per_s times, at the scale factor of these benchmarks.
func BenchmarkUnionDrain(b *testing.B) {
	d := db(b)
	var handles []*Handle
	var parts [][]*cqenum.CQ
	var n int64
	for _, u := range tpchq.UCQs() {
		h, err := Open(d, u)
		if err != nil {
			b.Fatal(err)
		}
		handles, n = append(handles, h), n+h.Count()
		var cs []*cqenum.CQ
		for _, q := range u.Disjuncts {
			cs = append(cs, prepare(b, q))
		}
		parts = append(parts, cs)
	}
	b.Run("mcUCQ", func(b *testing.B) {
		benchDrains(b, n, func(i int, answer func()) {
			for _, h := range handles {
				for _, err := range h.Shuffled(rand.New(rand.NewSource(int64(i)))) {
					if err != nil {
						b.Fatal(err)
					}
					answer()
				}
			}
		})
	})
	b.Run("Algorithm5", func(b *testing.B) {
		benchDrains(b, n, func(i int, answer func()) {
			for _, cs := range parts {
				sets := make([]unionenum.Set, len(cs))
				for si, c := range cs {
					sets[si] = c.NewDeletableSet()
				}
				e := unionenum.New(sets, rand.New(rand.NewSource(int64(i))))
				for _, ok := e.Next(); ok; _, ok = e.Next() {
					answer()
				}
			}
		})
	})
}
