package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/cqenum"
	"repro/internal/reduce"
	"repro/internal/tpch"
	"repro/internal/tpchq"
	"repro/internal/unionenum"
)

// paper_tpch is the paper's own experiment, in-process, on one goroutine:
// the TPC-H queries of its evaluation, answered by random access and by
// random-order enumeration (REnum(CQ), and for the unions both the mc-UCQ
// structure and Algorithm 5). No socket, no server: an index or enumeration
// change shows here and a transport change must not.

const (
	paperScaleFactor = 0.05
	accessBlocksPer  = 8 // random-access blocks per CQ per repetition
	minPaperReps     = 3
)

// paperQuery is one opened query with what its checks need.
type paperQuery struct {
	name  string
	q     renum.Query
	h     *renum.Handle
	all   fingerprint  // of All(): the reference answer set
	parts []*cqenum.CQ // unions: the prepared disjuncts Algorithm 5 runs on
}

type paperState struct {
	db   *renum.Database
	cqs  []*paperQuery
	ucqs []*paperQuery
}

// setupPaper generates TPC-H, opens all nine handles and prepares the union
// disjuncts for Algorithm 5. It returns the sum of the nine renum.Open
// calls beside the state.
func setupPaper(o options) (*paperState, time.Duration, error) {
	db, err := generatePaper(o)
	if err != nil {
		return nil, 0, err
	}
	return openPaper(db)
}

func generatePaper(o options) (*renum.Database, error) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: paperScaleFactor * o.scale, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	return db, tpchq.PrepareDerived(db)
}

func openPaper(db *renum.Database) (*paperState, time.Duration, error) {
	st := &paperState{db: db}
	var opens time.Duration
	open := func(name string, q renum.Query) (*paperQuery, error) {
		t0 := time.Now()
		h, err := renum.Open(db, q)
		opens += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", name, err)
		}
		if err := guardCount(h.Count()); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return &paperQuery{name: name, q: q, h: h}, nil
	}
	for _, q := range tpchq.CQs() {
		pq, err := open(q.Name, q)
		if err != nil {
			return nil, 0, err
		}
		st.cqs = append(st.cqs, pq)
	}
	for _, u := range tpchq.UCQs() {
		pq, err := open(u.Name, u)
		if err != nil {
			return nil, 0, err
		}
		for _, d := range u.Disjuncts {
			c, err := cqenum.Prepare(db, d, reduce.Options{})
			if err != nil {
				return nil, 0, fmt.Errorf("prepare %s: %w", d.Name, err)
			}
			pq.parts = append(pq.parts, c)
		}
		st.ucqs = append(st.ucqs, pq)
	}
	return st, opens, nil
}

func (st *paperState) all() []*paperQuery {
	return append(append([]*paperQuery(nil), st.cqs...), st.ucqs...)
}

// algorithm5 returns a fresh Algorithm 5 enumerator over the union's
// prepared disjuncts (enumeration consumes the sets, the indexes stay).
func (pq *paperQuery) algorithm5(rng *rand.Rand) *unionenum.Enumerator {
	sets := make([]unionenum.Set, len(pq.parts))
	for i, c := range pq.parts {
		sets[i] = c.NewDeletableSet()
	}
	return unionenum.New(sets, rng)
}

// verifyPaper is the untimed first repetition: every random-order drain
// must emit exactly Count() answers whose fingerprint equals All()'s, and
// inverted access must invert access.
func verifyPaper(st *paperState, res *result, seed int64) {
	for i, pq := range st.all() {
		for t, err := range pq.h.All() {
			if err != nil {
				res.check(err, pq.name+" All")
				return
			}
			pq.all.add(t)
		}
		var err error
		if pq.all.count != pq.h.Count() {
			err = fmt.Errorf("All() yields %d answers, Count() is %d", pq.all.count, pq.h.Count())
		}
		res.check(err, pq.name+" count")

		var got fingerprint
		for t, err := range pq.h.Shuffled(rand.New(rand.NewSource(seed + int64(i)))) {
			if err != nil {
				res.check(err, pq.name+" Shuffled")
				return
			}
			got.add(t)
		}
		res.check(sameFingerprint(got, pq.all), pq.name+" Shuffled drain")

		if pq.parts == nil {
			res.check(checkBijection(pq.h, seed+int64(i), 10_000), pq.name+" bijection")
			continue
		}
		got = fingerprint{}
		e := pq.algorithm5(rand.New(rand.NewSource(seed + int64(i))))
		for t, ok := e.Next(); ok; t, ok = e.Next() {
			got.add(t)
		}
		res.check(sameFingerprint(got, pq.all), pq.name+" Algorithm 5 drain")
	}
}

func sameFingerprint(got, want fingerprint) error {
	if got != want {
		return fmt.Errorf("drain emitted %d answers with fingerprint %x, All() has %d with %x", got.count, got.sum, want.count, want.sum)
	}
	return nil
}

// paperRep is one timed repetition's numbers.
type paperRep struct {
	accessNs, renumRate, ucqRate     float64
	probes, renumAnswers, ucqAnswers int64
}

// drain runs one enumeration to its end — each calls answer once per answer
// it emits — and reports answers and elapsed time. A traced run records a
// span per probeBlock answers, the unit the access phase is timed in.
func drain(t *tracer, each func(answer func())) (int64, time.Duration) {
	t0 := time.Now()
	from := t0
	var n int64
	each(func() {
		if n++; t != nil && n%probeBlock == 0 {
			now := time.Now()
			t.span("handle.enumerate", "", from, now, uint64(n/probeBlock))
			from = now
		}
	})
	return n, time.Since(t0)
}

// shuffled is a full Handle.Shuffled drain in the form drain takes.
func shuffled(h *renum.Handle, rng *rand.Rand) func(answer func()) {
	return func(answer func()) {
		for _, err := range h.Shuffled(rng) {
			if err != nil {
				return // the caller sees too few answers
			}
			answer()
		}
	}
}

// runPaperRep is the paper's experiment once: random access, then a full
// random-order drain of every CQ and, by both algorithms, of every union.
func runPaperRep(st *paperState, seed int64, t *tracer) (paperRep, error) {
	var rep paperRep

	// Random access: uniform positions, blocks of 4096, every CQ.
	var blockNs []float64
	rng := rand.New(rand.NewSource(seed))
	for _, pq := range st.cqs {
		row := make(renum.Tuple, len(pq.h.Head()))
		n := pq.h.Count()
		for b := 0; b < accessBlocksPer; b++ {
			t0 := time.Now()
			for i := 0; i < probeBlock; i++ {
				if err := pq.h.AccessInto(rng.Int63n(n), row); err != nil {
					return rep, err
				}
			}
			end := time.Now()
			if t != nil {
				t.span("handle.access", "", t0, end, uint64(len(blockNs)))
			}
			blockNs = append(blockNs, float64(end.Sub(t0))/probeBlock)
		}
	}
	rep.accessNs, rep.probes = median(sortedCopy(blockNs)), int64(len(blockNs))*probeBlock

	// REnum(CQ): a full Handle.Shuffled drain of every CQ.
	var elapsed time.Duration
	for i, pq := range st.cqs {
		n, d := drain(t, shuffled(pq.h, rand.New(rand.NewSource(seed+int64(i)))))
		if n != pq.h.Count() {
			return rep, fmt.Errorf("%s: drain emitted %d of %d answers", pq.name, n, pq.h.Count())
		}
		rep.renumAnswers, elapsed = rep.renumAnswers+n, elapsed+d
	}
	rep.renumRate = float64(rep.renumAnswers) / elapsed.Seconds()

	// REnum(UCQ): every union by the mc-UCQ structure and by Algorithm 5.
	elapsed = 0
	for i, pq := range st.ucqs {
		n, d := drain(t, shuffled(pq.h, rand.New(rand.NewSource(seed+int64(i)))))
		e := pq.algorithm5(rand.New(rand.NewSource(seed + int64(i))))
		n5, d5 := drain(t, func(answer func()) {
			for _, ok := e.Next(); ok; _, ok = e.Next() {
				answer()
			}
		})
		if n != pq.h.Count() || n5 != pq.h.Count() {
			return rep, fmt.Errorf("%s: drains emitted %d and %d of %d answers", pq.name, n, n5, pq.h.Count())
		}
		rep.ucqAnswers, elapsed = rep.ucqAnswers+n+n5, elapsed+d+d5
	}
	rep.ucqRate = float64(rep.ucqAnswers) / elapsed.Seconds()
	return rep, nil
}

func runPaper(o options) (*result, error) {
	res := newResult(wPaper)
	// Set-up is repeated like a socket workload's; the last state is kept.
	var st *paperState
	var opens []float64
	setups, err := repeated(minSetupReps, 0, func() (float64, error) {
		st = nil
		runtime.GC() // the previous repetition's indexes are garbage, not load
		t0 := time.Now()
		var opened time.Duration
		var err error
		st, opened, err = setupPaper(o)
		opens = append(opens, opened.Seconds())
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = medianOf(setups, int64(len(setups)))
	res.e2e["preprocess_s"] = medianOf(opens, int64(len(opens)*len(st.all())))
	res.e2e["mem_mb"] = single(float64(heapAfterGC().HeapInuse)/(1<<20), 1)
	res.notef("TPC-H scale factor %g: %d tuples, %d CQs, %d UCQs", paperScaleFactor*o.scale, st.db.Size(), len(st.cqs), len(st.ucqs))

	verifyPaper(st, res, o.seed)

	var reps []paperRep
	for start := time.Now(); len(reps) < minPaperReps || time.Since(start) < o.window(); {
		rep, err := runPaperRep(st, o.seed*1000+int64(len(reps)), nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	col := func(f func(paperRep) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	n := int64(len(reps))
	res.e2e["access_ns"] = medianOf(col(func(r paperRep) float64 { return r.accessNs }), n*reps[0].probes)
	res.e2e["renum_answers_per_s"] = medianOf(col(func(r paperRep) float64 { return r.renumRate }), n*reps[0].renumAnswers)
	res.e2e["ucq_answers_per_s"] = medianOf(col(func(r paperRep) float64 { return r.ucqRate }), n*reps[0].ucqAnswers)
	res.notef("%d timed repetitions after one verifying repetition", len(reps))
	return res, nil
}
